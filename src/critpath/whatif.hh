/**
 * @file
 * What-if makespan estimation over a recorded execution.
 *
 * A recorded run fixes the complete timing graph of one simulation:
 * dependency edges plus, for every resource, the order reservations
 * were granted in. Replaying that graph with transformed task durations
 * gives an analytic makespan estimate in one linear pass — no event
 * queue, no resimulation. With the identity
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
 *     resource's total work. Provably sound: any schedule respects
 *     dependencies, and a resource retires at most one second of work
 *     per second.
 *   - upper: the resimulation itself, one TaskGraph::execute of the
 *     graph with the transformed durations (no record). So
 *     lower <= true <= upper holds with equality on the upper side.
 *
 * The fixed-grant-order replay is deliberately NOT used as the upper
 * bound: resimulation re-orders grants where the transform changes
 * release times, and classic list-scheduling anomalies push the true
 * makespan above the fixed-order replay on a sizable fraction of
 * graphs (measured: up to ~15% on seeded random DAGs). The replay is
 * the instant estimate; the executor run is the bound.
 *
 * makespanBounds() provides the same bounds for a graph with no
 * recorded run: it executes the graph once, so its upper bound is the
 * event simulation's makespan and sweep pruning decisions match what a
 * full simulation would conclude.
 */

#ifndef LERGAN_CRITPATH_WHATIF_HH
#define LERGAN_CRITPATH_WHATIF_HH

#include <string>
#include <vector>

#include "critpath/critpath.hh"

namespace lergan {

/** A transform of the recorded run: new per-task durations. */
struct WhatIfTransform {
    /** Human-readable description ("wire throughput x2"). */
    std::string description;
    /** New duration per TaskId; empty = the graph's durations. */
    std::vector<PicoSeconds> durations;
};

/** Analytic estimate of the transformed run's makespan. */
struct WhatIfEstimate {
    /** Fixed-grant-order replay makespan (one linear pass, no event
     *  queue; exact for the identity transform). */
    PicoSeconds makespan = 0;
    /** Sound lower bound on the resimulated makespan. */
    PicoSeconds lower = 0;
    /** Upper bound: the executor run on the transformed durations,
     *  i.e. the resimulated makespan. */
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
 * Makespan bounds for @p graph from one recorded execute: upper is the
 * run's makespan (so it equals the event
 * simulation's exactly), lower the dependency/work bound.
 *
 * @param resource_count unused; every per-resource column is sized by
 *                       graph.resourceBound().
 */
MakespanBounds makespanBounds(const TaskGraph &graph,
                              std::size_t resource_count);

} // namespace lergan

#endif // LERGAN_CRITPATH_WHATIF_HH
