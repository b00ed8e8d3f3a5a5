/**
 * @file
 * Critical-path extraction over a recorded task-graph execution.
 *
 * The executor's ExecRecord names, for every task, the *binding
 * predecessor* — the one dependency completion or resource release that
 * set the task's start time exactly (start(t) == end(bindingPred(t))).
 * Walking binding predecessors backward from the makespan task yields an
 * unbroken chain from time zero to the makespan whose durations sum to
 * the makespan *exactly*: there is no idle time anywhere on the chain,
 * because each link starts the instant its predecessor ends and the
 * first link starts at zero. That chain is the critical path; every
 * entry says which task, on which resource, in which phase, delayed the
 * run and by how much.
 *
 * A backward pass over the full recorded timing graph (dependency edges
 * plus per-resource reservation-succession edges) additionally gives
 * each task its slack: how much the task could slip without moving the
 * makespan, zero on the critical chain.
 */

#ifndef LERGAN_CRITPATH_CRITPATH_HH
#define LERGAN_CRITPATH_CRITPATH_HH

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_record.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"

namespace lergan {

class JsonWriter;

/** One link of the critical chain. */
struct CritEntry {
    TaskId task = kNoTask;
    /** Phase the task counts toward. */
    Phase phase = Phase::Other;
    /** Binding resource id (ExecRecord::kNoResource unless kind ==
     *  Resource). */
    std::uint32_t resource = ExecRecord::kNoResource;
    /** Category of the *first* resource the task held, or None for
     *  pure barriers. */
    ResourceCategory category = ResourceCategory::None;
    /** Why the task started when it did. */
    BindingKind kind = BindingKind::None;
    PicoSeconds start = 0;
    PicoSeconds duration = 0;
};

/** Named duration rollup (phase or resource category -> picoseconds). */
using CritRollup = std::vector<std::pair<std::string, PicoSeconds>>;

/** The extracted critical path of one recorded run. */
struct CriticalPath {
    /** Makespan of the recorded run. */
    PicoSeconds makespan = 0;
    /** The chain in time order: entries.front() starts at 0,
     *  entries.back() ends at makespan. */
    std::vector<CritEntry> entries;
    /** Chain time by phase, sorted by share descending. */
    CritRollup phaseRollup;
    /** Chain time by resource category, sorted by share descending. */
    CritRollup resourceRollup;
    /** Per-task slack (indexed by TaskId): how far the task's finish
     *  could slip, given the recorded timing graph, without moving the
     *  makespan. Zero on the critical chain. */
    std::vector<PicoSeconds> slack;

    /** Identity table of the recorded graph (labels the entries). */
    std::shared_ptr<const TaskIdentity> tasks;
    /** Pool resource names indexed by resource id (names the binding
     *  resources). */
    std::vector<std::string> resourceNames;

    /** Sum of entry durations; equals makespan by construction. */
    PicoSeconds criticalDuration() const;

    /** Number of tasks with zero slack (>= entries.size()). */
    std::size_t zeroSlackTasks() const;

    /**
     * Print the rollups plus the @p top_k longest chain entries as an
     * indented report block.
     */
    void print(std::ostream &os, std::size_t top_k = 8) const;

    /** Write the "critpath" key and object (makespan, links,
     *  zero-slack tasks, both rollups in ms) of a JSON export. */
    void writeJson(JsonWriter &json) const;
};

/**
 * Extract the critical path of one recorded execution.
 *
 * @param graph          the graph that was executed.
 * @param record         the record execute() filled for that run.
 * @param resource_names pool resource names indexed by resource id
 *                       (for binding-resource names). Categories come
 *                       from the graph (TaskGraph::resourceCategory).
 */
CriticalPath extractCriticalPath(
    const TaskGraph &graph, const ExecRecord &record,
    const std::vector<std::string> &resource_names);

/**
 * Everything needed to analyse a run after the fact: the graph (shared
 * with whoever built it), the execution record and the extracted path.
 * This is what SimulationSession::withCriticalPath() hangs onto and the
 * what-if estimator replays.
 */
struct RecordedRun {
    std::shared_ptr<const TaskGraph> graph;
    ExecRecord record;
    CriticalPath path;

    bool empty() const { return graph == nullptr; }
};

/**
 * Bundle a finished recording into a shareable RecordedRun: stores the
 * pieces and extracts the critical path. @p graph must be the graph
 * @p record came from (use the aliasing shared_ptr constructor to
 * share an owning template).
 */
std::shared_ptr<const RecordedRun>
makeRecordedRun(std::shared_ptr<const TaskGraph> graph,
                const std::vector<std::string> &resource_names,
                ExecRecord record);

/**
 * Append the critical chain to @p tracer as a dedicated display lane
 * and add that lane's name to @p lane_names, so a Chrome trace export
 * shows the chain as its own track above the per-resource ones.
 * @p tracer must be empty or hold events of the recorded graph: it is
 * bound to the path's identity table.
 *
 * @return the lane id the chain was placed on.
 */
std::size_t appendCriticalTrack(Tracer &tracer, const CriticalPath &path,
                                std::vector<std::string> &lane_names);

} // namespace lergan

#endif // LERGAN_CRITPATH_CRITPATH_HH
