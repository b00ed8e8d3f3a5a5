/**
 * @file
 * The phases of GAN training, and of the tasks that simulate it.
 *
 * The compiler lowers each of the six training phases separately
 * (nn/training.hh). Every simulated task counts toward one Phase: the
 * training phase it computes, or transfers, updates or other
 * (sim/task_graph.hh). kPhaseNames spells every name once.
 */

#ifndef LERGAN_COMMON_PHASE_HH
#define LERGAN_COMMON_PHASE_HH

#include <cstddef>
#include <cstdint>

namespace lergan {

/** A training phase (the first six), or a family of other tasks. */
enum class Phase : std::uint8_t {
    GFwd,       ///< generator forward propagation
    DFwd,       ///< discriminator forward propagation
    DBwdErr,    ///< discriminator error transfer
    DBwdWeight, ///< discriminator nabla-weight calculation
    GBwdErr,    ///< generator error transfer
    GBwdWeight, ///< generator nabla-weight calculation
    Transfers,  ///< wire and bus movement (not a training phase)
    Updates,    ///< gradient read-out, host SGD, kernel rewrites
    Other,      ///< controller switches and barriers
};

/** Number of Phase values. */
inline constexpr std::size_t kNumPhases = 9;

/** The six training phases, in dataflow order. */
inline constexpr Phase kAllPhases[6] = {
    Phase::GFwd,       Phase::DFwd,    Phase::DBwdErr,
    Phase::DBwdWeight, Phase::GBwdErr, Phase::GBwdWeight,
};

/** Printable phase names, indexed by Phase. */
inline constexpr const char *kPhaseNames[kNumPhases] = {
    "G.fwd",   "D.fwd",     "D.bwd_err", "D.bwd_w", "G.bwd_err",
    "G.bwd_w", "transfers", "updates",   "other",
};

/** @return printable phase name ("G.fwd", "transfers", ...). */
constexpr const char *
phaseName(Phase phase)
{
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

} // namespace lergan

#endif // LERGAN_COMMON_PHASE_HH
