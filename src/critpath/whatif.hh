/**
 * @file
 * What-if makespan estimation over a recorded execution.
 *
 * A recorded run fixes the complete timing graph of one simulation:
 * dependency edges plus, for every resource, the order reservations
 * were granted in. Replaying that graph with transformed task durations
 * (or extra resource copies) gives an analytic makespan estimate in one
 * linear pass — no event queue, no resimulation. With the identity
 * transform the replay reproduces the recorded makespan bit-exactly,
 * because the replay recurrence
 *
 *     end(t) = max(max_deps end(d), max_res end(prev holder)) + dur(t)
 *
 * is precisely how the executor computed each start time. Task
 * durations, resource lists and dependency edges are read straight from
 * the TaskGraph's columns and CSR lists; the record contributes only its
 * completion order, which fixes the per-resource grant order.
 *
 * Each estimate comes with bounds on the *true* (resimulated) makespan
 * under the transform:
 *
 *   - lower: max of the longest dependency-only chain and every
 *     resource's total work divided by its copy count. Provably sound:
 *     any schedule respects dependencies, and a resource with c copies
 *     can retire at most c seconds of work per second.
 *   - upper: the executor's own greedy policy re-run on the transformed
 *     graph by a lean event-loop mirror (same (time, seq) event order,
 *     no pool/stats/trace machinery). For transforms that keep every
 *     copy count at one the mirror's schedule is decision-for-decision
 *     the resimulated one, so lower <= true <= upper holds by
 *     construction; extra copies generalize the mirror to c
 *     interchangeable FIFO units per resource.
 *
 * The fixed-grant-order replay is deliberately NOT used as the upper
 * bound: resimulation re-orders grants where the transform changes
 * release times, and classic list-scheduling anomalies push the true
 * makespan above the fixed-order replay on a sizable fraction of
 * graphs (measured: up to ~15% on seeded random DAGs). The replay is
 * the instant estimate; the mirror is the bound.
 *
 * makespanBounds() provides the same bounds for a *never-executed*
 * graph; its upper bound equals the event simulation's makespan, so
 * sweep pruning decisions match what a full simulation would conclude
 * while skipping the execution-side machinery.
 */

#ifndef LERGAN_CRITPATH_WHATIF_HH
#define LERGAN_CRITPATH_WHATIF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "critpath/critpath.hh"

namespace lergan {

/**
 * A transform of the recorded run: per-task durations and/or per-
 * resource copy counts. Empty vectors mean "unchanged".
 */
struct WhatIfTransform {
    /** Human-readable description ("wire throughput x2"). */
    std::string description;
    /** New duration per TaskId; empty = the graph's durations. */
    std::vector<PicoSeconds> durations;
    /** Copies per resource id (>= 1); empty = one of each. */
    std::vector<std::uint32_t> copies;
};

/** Analytic estimate of the transformed run's makespan. */
struct WhatIfEstimate {
    /** Fixed-grant-order replay makespan (one linear pass, no event
     *  queue; exact for the identity transform). */
    PicoSeconds makespan = 0;
    /** Sound lower bound on the resimulated makespan. */
    PicoSeconds lower = 0;
    /** Upper bound from the executor-mirror reschedule; equals the
     *  resimulated makespan when copy counts are unchanged. */
    PicoSeconds upper = 0;
};

/** The do-nothing transform; whatIf() on it returns the recorded
 *  makespan exactly. */
WhatIfTransform identityTransform(const RecordedRun &run);

/**
 * Scale the duration of every task of phase @p phase (a kPhaseNames
 * name: "G.fwd", ..., "transfers", "updates", "other") by @p scale.
 * scale < 1 shrinks the phase.
 *
 * @throws std::invalid_argument when @p phase names no phase.
 */
WhatIfTransform scalePhase(const RecordedRun &run,
                           const std::string &phase, double scale);

/**
 * Divide the duration of every task holding a resource of category
 * @p category ("compute", "wire", "switch", "bus", "cpu" or "other";
 * read from the graph's resource categories) by @p throughput_scale —
 * e.g. 2.0 models wires twice as fast.
 *
 * @throws std::invalid_argument when @p category names no category.
 */
WhatIfTransform scaleResourceCategory(const RecordedRun &run,
                                      const std::string &category,
                                      double throughput_scale);

/**
 * Give every resource of category @p category (as for
 * scaleResourceCategory) @p copies interchangeable copies (e.g.
 * duplicate the tile class a congested crossbar belongs to). Durations
 * are unchanged; the replay lets @p copies reservations overlap per
 * resource.
 *
 * @throws std::invalid_argument when @p category names no category.
 */
WhatIfTransform duplicateResourceCategory(const RecordedRun &run,
                                          const std::string &category,
                                          std::uint32_t copies);

/** Replay the recorded timing graph under @p transform. */
WhatIfEstimate whatIf(const RecordedRun &run,
                      const WhatIfTransform &transform);

/** Lower/upper makespan bounds for a graph (executed or not). */
struct MakespanBounds {
    PicoSeconds lower = 0;
    PicoSeconds upper = 0;

    /** True when the bracket proves this graph's makespan is below
     *  @p reference. */
    bool provenFasterThan(PicoSeconds reference) const
    {
        return upper < reference;
    }
    /** True when the bracket proves it is above @p reference. */
    bool provenSlowerThan(PicoSeconds reference) const
    {
        return lower > reference;
    }
};

/**
 * Analytic makespan bounds for @p graph without running the full event
 * simulation: the dependency/work lower bound plus an upper bound from
 * a lean mirror of the executor's event loop (identical schedule, none
 * of the pool/stats/trace machinery) — so upper equals the event
 * simulation's makespan exactly.
 *
 * @param resource_count size of the pool the graph's resource ids
 *                       index into (raised to graph.resourceBound()
 *                       when smaller).
 */
MakespanBounds makespanBounds(const TaskGraph &graph,
                              std::size_t resource_count);

} // namespace lergan

#endif // LERGAN_CRITPATH_WHATIF_HH
