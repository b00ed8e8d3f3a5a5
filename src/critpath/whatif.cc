#include "critpath/whatif.hh"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "common/logging.hh"

namespace lergan {

namespace {

/** Compact scale factor for transform descriptions ("2", "0.5"). */
std::string
scaleText(double scale)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", scale);
    return buf;
}

/**
 * The index of @p name among the first @p count of @p names: parses a
 * what-if argument naming a @p kind to its enum value.
 *
 * @throws std::invalid_argument listing the accepted names when none
 *         matches (a misspelt name would otherwise match no task).
 */
std::size_t
parseName(const char *kind, const std::string &name,
          const char *const *names, std::size_t count)
{
    std::string accepted;
    for (std::size_t i = 0; i < count; ++i) {
        if (name == names[i])
            return i;
        accepted += (i ? ", " : "") + std::string(names[i]);
    }
    throw std::invalid_argument("unknown " + std::string(kind) + " '" +
                                name + "' (expected one of: " + accepted +
                                ")");
}

/** A pool resource's category: any but the last, None. */
ResourceCategory
parseCategory(const std::string &name)
{
    return static_cast<ResourceCategory>(
        parseName("resource category", name, kResourceCategoryNames,
                  kNumResourceCategories - 1));
}

/** True when any resource the task holds belongs to @p category. */
bool
holdsCategory(const TaskGraph &graph, TaskId id, ResourceCategory category)
{
    for (const std::uint32_t rid : graph.resources(id))
        if (graph.resourceCategory(rid) == category)
            return true;
    return false;
}

/**
 * The sound lower bound: the longest dependency-only chain (any
 * schedule respects dependencies) maxed with each resource's total
 * work (a resource retires at most one unit of work per unit time).
 * @p order must be a topological order.
 */
PicoSeconds
lowerBound(const TaskGraph &graph, std::span<const PicoSeconds> durations,
           const std::vector<TaskId> &order)
{
    const std::size_t n = graph.size();
    // Forward relaxation along the CSR: in topological order every
    // task's ready time is final before the task itself is visited.
    const SuccessorCsr successors = graph.successorCsr();
    std::vector<PicoSeconds> ready(n, 0);
    PicoSeconds longest = 0;
    for (TaskId id : order) {
        const PicoSeconds end = ready[id] + durations[id];
        longest = std::max(longest, end);
        for (const TaskId succ : successors.of(id))
            ready[succ] = std::max(ready[succ], end);
    }

    std::vector<PicoSeconds> work(graph.resourceBound(), 0);
    for (TaskId id = 0; id < n; ++id)
        for (const std::uint32_t rid : graph.resources(id))
            work[rid] += durations[id];
    for (const PicoSeconds total : work)
        longest = std::max(longest, total);
    return longest;
}

} // namespace

WhatIfTransform
identityTransform(const RecordedRun &run)
{
    (void)run;
    WhatIfTransform transform;
    transform.description = "identity";
    return transform;
}

WhatIfTransform
scalePhase(const RecordedRun &run, const std::string &phase,
           double scale)
{
    const auto wanted = static_cast<Phase>(
        parseName("phase", phase, kPhaseNames, kNumPhases));
    WhatIfTransform transform;
    transform.description = "phase " + phase + " x" + scaleText(scale);
    const auto durations = run.graph->durations();
    transform.durations.assign(durations.begin(), durations.end());
    for (TaskId id = 0; id < transform.durations.size(); ++id) {
        if (run.graph->phase(id) == wanted) {
            transform.durations[id] = static_cast<PicoSeconds>(
                static_cast<double>(transform.durations[id]) * scale +
                0.5);
        }
    }
    return transform;
}

WhatIfTransform
scaleResourceCategory(const RecordedRun &run, const std::string &category,
                      double throughput_scale)
{
    LERGAN_ASSERT(throughput_scale > 0.0,
                  "throughput scale must be positive");
    const ResourceCategory wanted = parseCategory(category);
    WhatIfTransform transform;
    transform.description =
        category + " throughput x" + scaleText(throughput_scale);
    const auto durations = run.graph->durations();
    transform.durations.assign(durations.begin(), durations.end());
    for (TaskId id = 0; id < transform.durations.size(); ++id) {
        if (holdsCategory(*run.graph, id, wanted)) {
            transform.durations[id] = static_cast<PicoSeconds>(
                static_cast<double>(transform.durations[id]) /
                    throughput_scale +
                0.5);
        }
    }
    return transform;
}

WhatIfEstimate
whatIf(const RecordedRun &run, const WhatIfTransform &transform)
{
    WhatIfEstimate estimate;
    if (run.empty() || run.record.empty())
        return estimate;
    const TaskGraph &graph = *run.graph;
    const std::size_t n = graph.size();
    LERGAN_ASSERT(transform.durations.empty() ||
                      transform.durations.size() == n,
                  "transform durations do not match the graph");

    const std::span<const PicoSeconds> durations =
        transform.durations.empty()
            ? graph.durations()
            : std::span<const PicoSeconds>(transform.durations);

    // Fixed-order replay: walk the recorded completion order (a
    // topological order of the timing graph) and recompute every end
    // time against dependencies (pushed forward along the CSR) and the
    // recorded per-resource grant order: a reservation waits for the
    // resource's previous grant to end.
    const std::vector<TaskId> order = run.record.completionOrder();
    const SuccessorCsr successors = graph.successorCsr();
    std::vector<PicoSeconds> ready(n, 0);
    std::vector<PicoSeconds> lastEnd(graph.resourceBound(), 0);
    for (TaskId id : order) {
        PicoSeconds start = ready[id];
        for (const std::uint32_t rid : graph.resources(id))
            start = std::max(start, lastEnd[rid]);
        const PicoSeconds end = start + durations[id];
        for (const std::uint32_t rid : graph.resources(id))
            lastEnd[rid] = end;
        for (const TaskId succ : successors.of(id))
            ready[succ] = std::max(ready[succ], end);
        estimate.makespan = std::max(estimate.makespan, end);
    }
    // The replay above keeps the recorded grant order, which a real
    // resimulation would not (list-scheduling anomalies cut both ways),
    // so it is the estimate, not the bound. The upper bound is the
    // resimulation itself: the executor run on the transformed
    // durations.
    estimate.upper = graph.execute(nullptr, nullptr, durations);
    estimate.lower = lowerBound(graph, durations, order);
    return estimate;
}

MakespanBounds
makespanBounds(const TaskGraph &graph, std::size_t /*resource_count*/)
{
    MakespanBounds bounds;
    // The upper bound is the event simulation's makespan; the
    // dependency/work bound below is the analytic lower one, whose
    // chain pass walks the run's completion order (a topological
    // order).
    ExecRecord record;
    graph.execute(nullptr, &record);
    bounds.upper = record.makespan;
    bounds.lower =
        lowerBound(graph, graph.durations(), record.completionOrder());
    return bounds;
}

} // namespace lergan
