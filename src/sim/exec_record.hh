/**
 * @file
 * Per-task execution recording for post-run dependence analysis.
 *
 * When a TaskGraph executes with an ExecRecord attached, the executor
 * writes down, for every task, when it started and finished and *why it
 * started when it did* — the binding predecessor: the dependency whose
 * completion released the task last, or, when the task then had to
 * queue behind earlier reservations, the previous holder of the most
 * contended resource. Following binding predecessors backward from the
 * makespan task yields the critical path (src/critpath); the recorded
 * reservation order of every resource class (resPrev) additionally
 * fixes the full timing graph the what-if estimator replays.
 *
 * The record is the only thing the executor writes. The audit and the
 * phase report read its start/end columns directly, next to the graph
 * (audit/audit.hh, core/phase_report.hh). Its pop-order column (the
 * interleaved fire and completion events, as popped) lets every other
 * observer be derived after the run, sample for sample: the Chrome
 * export's Tracer events and occupancy counter tracks and the sim.*
 * histograms (deriveObservers, sim/observe.hh).
 *
 * The record is pure output: recording never changes event order or
 * results, and a null record costs one predictable branch per event.
 * Its task-id columns (bindingPred, the per-slot resPrev and the
 * pop-order column) hold 4-byte ids, which the executor's cap of
 * UINT32_MAX / 2 tasks keeps exact.
 */

#ifndef LERGAN_SIM_EXEC_RECORD_HH
#define LERGAN_SIM_EXEC_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"

namespace lergan {

/** What determined a task's start time. */
enum class BindingKind : std::uint8_t {
    /** Task started at time zero with nothing ahead of it. */
    None,
    /** Start = the binding dependency's completion time. */
    Dependency,
    /** Start = the time the binding resource's previous reservation
     *  ended (the task was released earlier but had to queue). */
    Resource,
};

/** @return "none", "dep" or "resource". */
constexpr const char *
bindingKindName(BindingKind kind)
{
    switch (kind) {
      case BindingKind::None:       return "none";
      case BindingKind::Dependency: return "dep";
      case BindingKind::Resource:   return "resource";
    }
    return "?";
}

/**
 * Execution record of one TaskGraph run (all vectors indexed by TaskId
 * unless noted). Filled by TaskGraph::execute; resize/reset is the
 * executor's job, so one record can be reused across runs.
 */
struct ExecRecord {
    /** Sentinel resource id: the task held no resources. */
    static constexpr std::uint32_t kNoResource =
        std::numeric_limits<std::uint32_t>::max();
    /** Sentinel of the 4-byte task columns (bindingPred, resPrev):
     *  no task. */
    static constexpr std::uint32_t kNoTask32 =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<PicoSeconds> start;
    std::vector<PicoSeconds> end;
    /** Binding predecessor task (kNoTask32 when None). */
    std::vector<std::uint32_t> bindingPred;
    std::vector<BindingKind> bindingKind;
    /** Resource the task queued on when bindingKind == Resource: of
     *  the resources that freed last, the first in the task's list. */
    std::vector<std::uint32_t> bindingRes;
    /**
     * Previous holder per (task, resource class) reservation slot:
     * slot graph.resourceClasses().slot(t) + j belongs to class
     * resourceClasses().of(t)[j], and every resource of that class had
     * this previous holder (a class's resources are held by the same
     * tasks). kNoTask32 entries mean the reservation was the class's
     * first. 4-byte task ids: the executor caps graphs at
     * UINT32_MAX / 2 tasks (the pop-order encoding), and this column
     * has one entry per class slot, ~1.8 per task on Table V.
     */
    std::vector<std::uint32_t> resPrev;
    /**
     * The run's 2n events in pop order: entry k is popEntry(task,
     * complete) of the k-th popped event. With the graph's successor
     * CSR and the start/end columns this replays the executor's
     * ready and in-flight counts at every pop.
     */
    std::vector<std::uint32_t> popOrder;
    /** The task whose completion set the makespan (ties: the last
     *  completion processed, i.e. the graph's final sink). */
    std::size_t lastTask = std::numeric_limits<std::size_t>::max();
    /** Completion time of lastTask. */
    PicoSeconds makespan = 0;

    bool empty() const { return start.empty(); }

    /**
     * Tasks in completion-processing order: the completions of
     * popOrder. Because a binding or reservation predecessor always
     * completes no later than (and at equal times: is processed
     * before) its successor, this is a topological order of the
     * recorded timing graph — the order every replay and backward
     * slack pass walks.
     */
    std::vector<std::size_t>
    completionOrder() const
    {
        std::vector<std::size_t> order;
        order.reserve(popOrder.size() / 2);
        for (const std::uint32_t entry : popOrder) {
            if (popIsCompletion(entry))
                order.push_back(popTask(entry));
        }
        return order;
    }

    /** popOrder entry of firing (@p complete false) or completing
     *  @p task. */
    static constexpr std::uint32_t
    popEntry(std::size_t task, bool complete)
    {
        return static_cast<std::uint32_t>(task << 1) | (complete ? 1u : 0u);
    }
    /** Task of popOrder entry @p entry. */
    static constexpr std::size_t
    popTask(std::uint32_t entry)
    {
        return entry >> 1;
    }
    /** Whether popOrder entry @p entry is a completion. */
    static constexpr bool
    popIsCompletion(std::uint32_t entry)
    {
        return (entry & 1u) != 0;
    }
};

} // namespace lergan

#endif // LERGAN_SIM_EXEC_RECORD_HH
