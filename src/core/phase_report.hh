/**
 * @file
 * Per-phase timing analysis over a traced simulation run.
 *
 * Every task carries the phase it counts toward; grouping trace
 * events by phase shows where iteration time goes and how much the
 * phases overlap (the pipelined dataflows of the paper's
 * Fig. 7/8/13: error transfer runs while forward propagation of later
 * items is still in flight).
 */

#ifndef LERGAN_CORE_PHASE_REPORT_HH
#define LERGAN_CORE_PHASE_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace lergan {

/** Aggregated timing of one phase (or task family). */
struct PhaseTime {
    /** Phase name ("G.fwd"), or "transfers" / "updates" / "other". */
    std::string name;
    /** Summed task durations (work volume). */
    PicoSeconds busy = 0;
    /** First task start. */
    PicoSeconds firstStart = 0;
    /** Last task end. */
    PicoSeconds lastEnd = 0;
    /** Number of tasks. */
    std::uint64_t tasks = 0;

    /** Wall-clock window the phase was active in. */
    PicoSeconds span() const { return lastEnd - firstStart; }
};

/**
 * Group a run's trace events by their tasks' phases: compute
 * tasks by the phase they compute; transfers and item loads in
 * "transfers"; gradient read-out, host arithmetic and kernel rewrites
 * in "updates"; the rest in "other".
 */
std::vector<PhaseTime> phaseTimes(const Tracer &tracer);

/** Print the phase table with overlap ratios (busy / span). */
void printPhaseTimes(std::ostream &os, const Tracer &tracer,
                     PicoSeconds makespan);

} // namespace lergan

#endif // LERGAN_CORE_PHASE_REPORT_HH
