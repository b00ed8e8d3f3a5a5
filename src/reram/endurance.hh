/**
 * @file
 * ReRAM endurance analysis.
 *
 * The paper motivates ReRAM with its >1e10 (up to 1e12) write endurance
 * (Sec. II-A): "If a network needs to be trained for 1e5 times,
 * ReRAM-based PIM can train 1e5 ~ 1e7 such networks." This module turns
 * a simulated training iteration's write counts into that lifetime
 * estimate, per configuration — duplication shortens lifetime because
 * every replica is rewritten on every update.
 */

#ifndef LERGAN_RERAM_ENDURANCE_HH
#define LERGAN_RERAM_ENDURANCE_HH

#include <cstdint>

#include "common/stats.hh"

namespace lergan {

/** Endurance assumptions (paper Sec. II-A citations [35][36][26]). */
struct EnduranceParams {
    /** Write cycles one cell survives. */
    double cellEndurance = 1e10;
    /** Iterations of one full training run (paper's example: 1e5). */
    double iterationsPerTraining = 1e5;
};

/** Lifetime estimate for one mapping. */
struct EnduranceReport {
    /** Average writes per *programmed* weight cell per iteration. */
    double writesPerCellPerIteration = 0.0;
    /** Training iterations before the hottest cells wear out. */
    double survivableIterations = 0.0;
    /** Complete training runs before wear-out. */
    double survivableTrainings = 0.0;
};

/**
 * Estimate endurance from one iteration's statistics.
 *
 * @param stats          a TrainingReport's stats (needs
 *                       Quantity::WeightWrites).
 * @param stored_weights weight elements resident in CArrays (replicas
 *                       included) — the cells sharing the write load.
 */
EnduranceReport estimateEndurance(const StatSet &stats,
                                  std::uint64_t stored_weights,
                                  const EnduranceParams &params = {});

} // namespace lergan

#endif // LERGAN_RERAM_ENDURANCE_HH
