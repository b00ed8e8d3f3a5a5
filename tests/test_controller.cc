/**
 * @file
 * Tests for the memory-controller FSM (Sec. V / Fig. 13 script).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/controller.hh"

namespace lergan {
namespace {

TEST(Controller, StartsIdleAllSmode)
{
    MemoryController ctrl{ReRamParams{}};
    EXPECT_EQ(ctrl.state(), CtrlState::Idle);
    for (int b = 0; b < MemoryController::kNumBanks; ++b)
        EXPECT_EQ(ctrl.mode(b), BankMode::Smode);
    EXPECT_EQ(ctrl.switchCount(), 0u);
}

TEST(Controller, IterationScriptMatchesFig13)
{
    MemoryController ctrl{ReRamParams{}};

    // -> TrainDisc: B1 (G fwd) and B4..B6 compute; B2/B3 stay memory.
    auto switches = ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::TrainDisc);
    EXPECT_EQ(switches.size(), 4u);
    EXPECT_EQ(ctrl.mode(0), BankMode::Cmode);
    EXPECT_EQ(ctrl.mode(1), BankMode::Smode);
    EXPECT_EQ(ctrl.mode(2), BankMode::Smode);
    EXPECT_EQ(ctrl.mode(3), BankMode::Cmode);
    EXPECT_EQ(ctrl.mode(4), BankMode::Cmode);
    EXPECT_EQ(ctrl.mode(5), BankMode::Cmode);

    // -> UpdateDisc: the discriminator CU reads/writes as plain memory;
    // B1 stays in Cmode (Fig. 13b note).
    switches = ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::UpdateDisc);
    EXPECT_EQ(ctrl.mode(0), BankMode::Cmode);
    for (int b = 3; b < 6; ++b)
        EXPECT_EQ(ctrl.mode(b), BankMode::Smode);

    // -> TrainGen: everything computes.
    switches = ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::TrainGen);
    for (int b = 0; b < 6; ++b)
        EXPECT_EQ(ctrl.mode(b), BankMode::Cmode);

    // -> UpdateGen: the generator CU flips to memory.
    switches = ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::UpdateGen);
    for (int b = 0; b < 3; ++b)
        EXPECT_EQ(ctrl.mode(b), BankMode::Smode);
}

TEST(Controller, WrapsToNextIteration)
{
    MemoryController ctrl{ReRamParams{}};
    for (int i = 0; i < 4; ++i)
        ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::UpdateGen);
    ctrl.advance();
    EXPECT_EQ(ctrl.state(), CtrlState::TrainDisc);
}

TEST(Controller, SwitchCountAccumulates)
{
    MemoryController ctrl{ReRamParams{}};
    ctrl.advance(); // 4 flips
    ctrl.advance(); // 3 flips (B4..B6 to Smode)
    EXPECT_EQ(ctrl.switchCount(), 7u);
}

TEST(Controller, ResetRestoresIdle)
{
    MemoryController ctrl{ReRamParams{}};
    ctrl.advance();
    ctrl.advance();
    ctrl.reset();
    EXPECT_EQ(ctrl.state(), CtrlState::Idle);
    EXPECT_EQ(ctrl.switchCount(), 0u);
    for (int b = 0; b < 6; ++b)
        EXPECT_EQ(ctrl.mode(b), BankMode::Smode);
}

TEST(Controller, ReconfigurationCostsArePositive)
{
    MemoryController ctrl{ReRamParams{}};
    EXPECT_GT(ctrl.switchTime(), 0u);
    EXPECT_GT(ctrl.switchEnergy(), 0.0);
}

TEST(Controller, StateNamesArePrintable)
{
    EXPECT_STREQ(ctrlStateName(CtrlState::Idle), "idle");
    EXPECT_STREQ(ctrlStateName(CtrlState::TrainDisc), "train_disc");
    EXPECT_STREQ(ctrlStateName(CtrlState::UpdateDisc), "update_disc");
    EXPECT_STREQ(ctrlStateName(CtrlState::TrainGen), "train_gen");
    EXPECT_STREQ(ctrlStateName(CtrlState::UpdateGen), "update_gen");
}

TEST(Controller, EachStateHasItsOwnEntryCounter)
{
    // The ledger's ctrl.enter.<state> counter of every state is named
    // after that state, so swapping two entries of the state-to-counter
    // table would rename the states themselves.
    std::set<Quantity> counters;
    for (CtrlState state :
         {CtrlState::Idle, CtrlState::TrainDisc, CtrlState::UpdateDisc,
          CtrlState::TrainGen, CtrlState::UpdateGen}) {
        EXPECT_EQ(quantityName(ctrlEnterQuantity(state)),
                  std::string("ctrl.enter.") + ctrlStateName(state));
        counters.insert(ctrlEnterQuantity(state));
    }
    EXPECT_EQ(counters.size(), 5u);
}

TEST(ControllerDeath, BadBankIdPanics)
{
    MemoryController ctrl{ReRamParams{}};
    EXPECT_DEATH(ctrl.mode(6), "bad bank id");
}

} // namespace
} // namespace lergan
