#include "core/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lergan {

MemoryController::MemoryController(const ReRamParams &params, int cu_pairs)
    : params_(params)
{
    LERGAN_ASSERT(cu_pairs >= 1, "need at least one CU pair");
    modes_.assign(static_cast<std::size_t>(kNumBanks) * cu_pairs,
                  BankMode::Smode);
}

BankMode
MemoryController::mode(int bank) const
{
    LERGAN_ASSERT(bank >= 0 && bank < numBanks(), "bad bank id ", bank);
    return modes_[bank];
}

std::vector<ModeSwitch>
MemoryController::applyModes(const std::array<BankMode, 6> &target)
{
    // Every CU pair plays the same role pattern (Fig. 13 per pair).
    std::vector<ModeSwitch> switches;
    for (int bank = 0; bank < numBanks(); ++bank) {
        const BankMode wanted = target[bank % kNumBanks];
        if (modes_[bank] != wanted) {
            modes_[bank] = wanted;
            switches.push_back(ModeSwitch{bank, wanted});
            ++switchCount_;
        }
    }
    return switches;
}

std::vector<ModeSwitch>
MemoryController::advance()
{
    const BankMode S = BankMode::Smode;
    const BankMode C = BankMode::Cmode;
    switch (state_) {
      case CtrlState::Idle:
      case CtrlState::UpdateGen:
        // Fig. 13a: B2/B3 idle as plain memory while the discriminator
        // trains; B1 (G->) and B4..B6 compute.
        state_ = CtrlState::TrainDisc;
        return applyModes({C, S, S, C, C, C});
      case CtrlState::TrainDisc:
        // Read Dw results and rewrite B4's kernels through Smode.
        state_ = CtrlState::UpdateDisc;
        return applyModes({C, S, S, S, S, S});
      case CtrlState::UpdateDisc:
        // Fig. 13b: everything computes while training the generator
        // (B1 is already in Cmode from the previous step).
        state_ = CtrlState::TrainGen;
        return applyModes({C, C, C, C, C, C});
      case CtrlState::TrainGen:
        state_ = CtrlState::UpdateGen;
        return applyModes({S, S, S, C, C, C});
    }
    LERGAN_PANIC("unreachable controller state");
}

void
MemoryController::reset()
{
    state_ = CtrlState::Idle;
    std::fill(modes_.begin(), modes_.end(), BankMode::Smode);
    switchCount_ = 0;
}

PicoSeconds
MemoryController::switchTime() const
{
    // Flipping a bank's mode reconfigures the switches of its 31 routing
    // nodes; the controller drives them in parallel rows (4 steps).
    return nsToPs(params_.switchReconfigNs * 4);
}

PicoJoules
MemoryController::switchEnergy() const
{
    return params_.switchReconfigPj * 31;
}

} // namespace lergan
