/**
 * @file
 * Memory-controller finite state machine (paper Sec. V).
 *
 * The controller tracks per-bank modes (Smode = plain memory, Cmode =
 * computing with reconfigurable wiring) and sequences one training
 * iteration through the paper's Fig. 13 script:
 *
 *   TrainDisc : banks {B1, B4, B5, B6} in Cmode, run G->, D->, D<-, Dw<-.
 *   UpdateDisc: {B4, B5, B6} back to Smode, read grads, write weights.
 *   TrainGen  : all banks Cmode, run G->, D->, D<-, G<-, Gw<-.
 *   UpdateGen : {B1, B2, B3} to Smode, update the generator.
 *
 * Mode flips cost switch-reconfiguration latency/energy; the accelerator
 * inserts them as tasks between phases.
 */

#ifndef LERGAN_CORE_CONTROLLER_HH
#define LERGAN_CORE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "reram/ledger.hh"
#include "reram/params.hh"

namespace lergan {

/** Operating mode of one bank. */
enum class BankMode { Smode, Cmode };

/** Controller FSM states, in iteration order. */
enum class CtrlState {
    Idle,
    TrainDisc,
    UpdateDisc,
    TrainGen,
    UpdateGen,
};

/** Ledger counter of the entries into @p state. */
constexpr Quantity
ctrlEnterQuantity(CtrlState state)
{
    constexpr Quantity byState[] = {
        Quantity::CtrlEnterIdle, Quantity::CtrlEnterTrainDisc,
        Quantity::CtrlEnterUpdateDisc, Quantity::CtrlEnterTrainGen,
        Quantity::CtrlEnterUpdateGen};
    return byState[static_cast<std::size_t>(state)];
}

/** @return state name ("train_disc"), spelled once as the last part of
 *  the name of its ledger entry counter. */
constexpr const char *
ctrlStateName(CtrlState state)
{
    const std::string_view key = quantityName(ctrlEnterQuantity(state));
    return key.data() + key.rfind('.') + 1;
}

/** One mode flip the accelerator must charge. */
struct ModeSwitch {
    int bank;
    BankMode to;
};

/**
 * The memory controller's data-mapping / switch-configuration FSM.
 *
 * Bank numbering follows Fig. 13: 0..2 = generator CU (B1..B3),
 * 3..5 = discriminator CU (B4..B6).
 */
class MemoryController
{
  public:
    static constexpr int kNumBanks = 6; ///< banks per CU pair

    /** @param cu_pairs number of CU pairs under management. */
    explicit MemoryController(const ReRamParams &params, int cu_pairs = 1);

    /** Total banks managed (6 per pair). */
    int numBanks() const { return static_cast<int>(modes_.size()); }

    CtrlState state() const { return state_; }
    BankMode mode(int bank) const;

    /**
     * Advance to the next state of the iteration script.
     *
     * @return the mode switches this transition performs; the caller
     * turns them into reconfiguration tasks. Advancing past UpdateGen
     * wraps to TrainDisc (the next iteration).
     */
    std::vector<ModeSwitch> advance();

    /** Reset to Idle with every bank in Smode. */
    void reset();

    /** Reconfiguration cost of one mode switch. */
    PicoSeconds switchTime() const;
    PicoJoules switchEnergy() const;

    /** Total mode switches performed since reset. */
    std::uint64_t switchCount() const { return switchCount_; }

  private:
    /** Apply a per-pair target pattern to every pair, recording flips. */
    std::vector<ModeSwitch> applyModes(const std::array<BankMode, 6> &target);

    ReRamParams params_;
    CtrlState state_ = CtrlState::Idle;
    /** Mode of every managed bank (6 per pair). */
    std::vector<BankMode> modes_;
    std::uint64_t switchCount_ = 0;
};

} // namespace lergan

#endif // LERGAN_CORE_CONTROLLER_HH
