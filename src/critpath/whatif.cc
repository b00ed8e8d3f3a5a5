#include "critpath/whatif.hh"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "common/logging.hh"
#include "sim/calendar_queue.hh"

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
 * work divided by its copy count (c copies retire at most c units of
 * work per unit time). @p order must be a topological order.
 */
PicoSeconds
lowerBound(const TaskGraph &graph, std::span<const PicoSeconds> durations,
           const std::vector<std::uint32_t> &copies,
           const std::vector<TaskId> &order, std::size_t resource_count)
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

    std::vector<PicoSeconds> work(resource_count, 0);
    for (TaskId id = 0; id < n; ++id)
        for (const std::uint32_t rid : graph.resources(id))
            work[rid] += durations[id];
    for (std::size_t rid = 0; rid < resource_count; ++rid) {
        const std::uint64_t c =
            rid < copies.size() ? std::max<std::uint32_t>(copies[rid], 1)
                                : 1;
        longest = std::max(longest, (work[rid] + c - 1) / c);
    }
    return longest;
}

/**
 * Lean mirror of TaskGraph::execute: the same fire/completion events
 * popped in the same (time, insertion-seq) order, minus the pool,
 * stats, tracing and record machinery — plus transformed durations and
 * per-resource copy counts (c interchangeable FIFO units; a reservation
 * takes the earliest-free unit). With every copy count at one the
 * mirror reproduces the event simulation's schedule decision for
 * decision, so the makespan it returns IS the resimulated makespan of
 * the transformed graph. Optionally emits the fire order (a topological
 * order) for the lower bound's chain pass.
 */
PicoSeconds
simulateList(const TaskGraph &graph, std::span<const PicoSeconds> durations,
             const std::vector<std::uint32_t> &copies,
             std::size_t resource_count, std::vector<TaskId> *fire_order)
{
    const std::size_t n = graph.size();
    const SuccessorCsr successors = graph.successorCsr();
    std::vector<std::uint32_t> unmet(n);
    for (TaskId id = 0; id < n; ++id)
        unmet[id] = graph.dependencyCount(id);
    sim::CalendarQueue<TaskEvent> queue;
    for (TaskId id = 0; id < n; ++id)
        if (unmet[id] == 0)
            queue.scheduleAt(0, TaskEvent(id, false));

    // Per-resource unit free times, flattened CSR-style: copies[rid]
    // interchangeable FIFO units per resource, one slot each.
    std::vector<std::size_t> unitStart(resource_count + 1, 0);
    for (std::size_t rid = 0; rid < resource_count; ++rid) {
        const std::uint32_t c =
            rid < copies.size() ? std::max<std::uint32_t>(copies[rid], 1)
                                : 1;
        unitStart[rid + 1] = unitStart[rid] + c;
    }
    std::vector<PicoSeconds> unitFree(unitStart[resource_count], 0);
    const auto earliestUnit = [&](std::size_t rid) {
        std::size_t best = unitStart[rid];
        for (std::size_t u = best + 1; u < unitStart[rid + 1]; ++u)
            if (unitFree[u] < unitFree[best])
                best = u;
        return best;
    };

    PicoSeconds makespan = 0;
    std::size_t completed = 0;
    TaskEvent event;
    while (queue.pop(event)) {
        const TaskId id = event.task();
        const PicoSeconds now = queue.now();
        if (!event.complete()) {
            if (fire_order)
                fire_order->push_back(id);
            PicoSeconds start = now;
            for (const std::uint32_t rid : graph.resources(id))
                start = std::max(start, unitFree[earliestUnit(rid)]);
            const PicoSeconds end = start + durations[id];
            for (const std::uint32_t rid : graph.resources(id))
                unitFree[earliestUnit(rid)] = end;
            queue.scheduleAt(end, TaskEvent(id, true));
        } else {
            makespan = std::max(makespan, now);
            ++completed;
            // Completions pop in time order, so a task fires the
            // instant its last dependency completes.
            for (const TaskId succ : successors.of(id)) {
                LERGAN_ASSERT(unmet[succ] > 0, "dependency underflow");
                if (--unmet[succ] == 0)
                    queue.scheduleAt(now, TaskEvent(succ, false));
            }
        }
    }
    LERGAN_ASSERT(completed == n, "task graph has a cycle: ", completed,
                  " of ", n, " tasks schedulable");
    return makespan;
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

WhatIfTransform
duplicateResourceCategory(const RecordedRun &run,
                          const std::string &category,
                          std::uint32_t copies)
{
    LERGAN_ASSERT(copies >= 1, "need at least one copy");
    const ResourceCategory wanted = parseCategory(category);
    WhatIfTransform transform;
    transform.description = category + " x" + std::to_string(copies) +
                            " copies";
    transform.copies.assign(run.path.resourceNames.size(), 1);
    for (std::size_t rid = 0; rid < run.path.resourceNames.size(); ++rid) {
        if (run.graph->resourceCategory(rid) == wanted)
            transform.copies[rid] = copies;
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
    const ExecRecord &record = run.record;
    const std::size_t n = graph.size();
    LERGAN_ASSERT(transform.durations.empty() ||
                      transform.durations.size() == n,
                  "transform durations do not match the graph");

    const std::span<const PicoSeconds> durations =
        transform.durations.empty()
            ? graph.durations()
            : std::span<const PicoSeconds>(transform.durations);
    const std::size_t resource_count =
        std::max({run.path.resourceNames.size(), graph.resourceBound(),
                  transform.copies.size()});

    auto copiesOf = [&](std::size_t rid) -> std::size_t {
        return rid < transform.copies.size()
                   ? std::max<std::uint32_t>(transform.copies[rid], 1)
                   : 1;
    };

    // Fixed-order replay: walk the recorded completion order (a
    // topological order of the timing graph) and recompute every end
    // time against dependencies (pushed forward along the CSR) and the
    // recorded per-resource grant order. With c copies of a resource, a
    // reservation waits for the c-th most recent grant instead of the
    // latest one.
    const std::vector<std::size_t> order = record.completionOrder();
    const SuccessorCsr successors = graph.successorCsr();
    std::vector<PicoSeconds> ready(n, 0);
    std::vector<std::vector<PicoSeconds>> grants(resource_count);
    for (TaskId id : order) {
        PicoSeconds start = ready[id];
        for (const std::uint32_t rid : graph.resources(id)) {
            const std::vector<PicoSeconds> &g = grants[rid];
            const std::size_t c = copiesOf(rid);
            if (g.size() >= c)
                start = std::max(start, g[g.size() - c]);
        }
        const PicoSeconds end = start + durations[id];
        for (const std::uint32_t rid : graph.resources(id))
            grants[rid].push_back(end);
        for (const TaskId succ : successors.of(id))
            ready[succ] = std::max(ready[succ], end);
        estimate.makespan = std::max(estimate.makespan, end);
    }
    // The replay above keeps the recorded grant order, which a real
    // resimulation would not (list-scheduling anomalies cut both ways),
    // so it is the estimate, not the bound. The upper bound re-runs the
    // executor's own greedy policy on the transformed graph via the
    // lean mirror — for unchanged copy counts that IS the resimulated
    // makespan.
    estimate.upper = simulateList(graph, durations, transform.copies,
                                  resource_count, nullptr);
    estimate.lower = lowerBound(graph, durations, transform.copies,
                                order, resource_count);
    return estimate;
}

MakespanBounds
makespanBounds(const TaskGraph &graph, std::size_t resource_count)
{
    const std::size_t n = graph.size();
    MakespanBounds bounds;
    if (n == 0)
        return bounds;
    resource_count = std::max(resource_count, graph.resourceBound());

    // The mirror reproduces the event simulation's schedule exactly, so
    // the upper bound is the true makespan of this graph; the
    // dependency/work bound below is the (cheaper, analytic) lower one.
    // The mirror's fire order is a topological order the lower bound's
    // chain pass walks.
    std::vector<TaskId> order;
    order.reserve(n);
    bounds.upper = simulateList(graph, graph.durations(), {},
                                resource_count, &order);
    bounds.lower = lowerBound(graph, graph.durations(), {}, order,
                              resource_count);
    return bounds;
}

} // namespace lergan
