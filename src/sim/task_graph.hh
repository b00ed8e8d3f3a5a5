/**
 * @file
 * Task-DAG executor on top of the event queue.
 *
 * The compiler lowers one GAN training iteration into a DAG of compute and
 * transfer tasks. Each task occupies one or more resources for a fixed
 * duration. Execution is event-driven: a task fires when its last
 * dependency completes, then reserves its resources FIFO, which naturally
 * models pipelining across a minibatch and contention on tiles and links.
 * (Energy is not the executor's business: it is schedule-independent and
 * accrued while the iteration is built.)
 *
 * Each task is stored once, as flat columns that addTask() appends to:
 * its typed identity — kind, phase, and the op and peer names it
 * refers to, as ids into a small per-graph table of interned names —
 * a duration column and a CSR resource list. A task's label is rendered
 * from its identity only when text is asked for (traces, diagnostics);
 * the identity table is shared with the Tracers that label events by
 * TaskId. On the first execute() the graph freezes its
 * dependency edges into a CSR successor list and sums each resource's
 * busy time and reservation count (neither depends on the schedule), so
 * the event loop only reads flat arrays and updates each resource's
 * next-free time in place. The events themselves are POD (task id +
 * kind) dispatched by a switch in the executor: no closures, no type
 * erasure, no allocation per event. Everything a run writes lives in
 * the ExecScratch it executes on — the event calendar, the dependency
 * counters and the per-resource next-free and wait columns, all reset
 * by each run — so a replay does near-zero allocation after the first
 * execution, and no run sees another's reservations.
 *
 * A frozen graph is immutable and may be executed concurrently from
 * several worker threads (each run's mutable state lives in its own
 * scratch); this is what makes per-iteration DAG templating safe.
 *
 * The event loop has no observer hooks: the only thing a run writes
 * besides its scratch is an optional ExecRecord. Traces, counter
 * tracks and occupancy histograms are derived from that record after
 * the run (sim/observe.hh).
 */

#ifndef LERGAN_SIM_TASK_GRAPH_HH
#define LERGAN_SIM_TASK_GRAPH_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/phase.hh"
#include "common/types.hh"
#include "sim/calendar_queue.hh"
#include "sim/exec_record.hh"
#include "sim/resource.hh"

namespace lergan {

/** Dense id of a task inside one TaskGraph. */
using TaskId = std::size_t;

/** Sentinel meaning "no task". */
constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

/** What a task is; fixes how its label renders from its names. */
enum class TaskKind : std::uint8_t {
    Compute,  ///< one item's work of an op: "<op>"
    Transfer, ///< operands moved between two ops: "xfer:<op>-><peer>"
    Load,     ///< an item streamed in from memory: "load:<op>"
    Update,   ///< an op's kernels rewritten: "update:<op>"
    Control,  ///< a controller state advance: "ctrl:<op>"
    Marker,   ///< a barrier or host step named by itself: "<op>"
};

/** One schedulable unit of work: the argument of TaskGraph::addTask. */
struct Task {
    TaskKind kind = TaskKind::Marker;
    /** Phase the task's time counts toward. */
    Phase phase = Phase::Other;
    /** Name id (TaskGraph::intern) of the op, state or marker, and of
     *  a transfer's destination op (0 for other kinds). */
    std::uint32_t op = 0, peer = 0;
    /** Resources occupied for the whole duration (may be empty). */
    std::span<const std::size_t> resources;
    /** Occupancy time. Zero-duration tasks act as barriers. */
    PicoSeconds duration = 0;
};

/**
 * The typed identity of a graph's tasks: kind, phase, op and peer
 * columns indexed by TaskId, and the interned names op and peer index.
 * Written by its TaskGraph; shared with Tracers, which label their
 * events from it after the graph is gone.
 */
struct TaskIdentity {
    std::vector<TaskKind> kinds;
    std::vector<Phase> phases;
    std::vector<std::uint32_t> ops, peers;
    std::vector<std::string> names;

    /** Render task @p id's label ("D.l2.conv@D.bwd_w",
     *  "xfer:G.l4.tconv@G.fwd->D.l1.conv@D.fwd", "ctrl:train_disc"). */
    std::string label(TaskId id) const;
};

/** POD event of the task executor: fire or complete one task. */
struct TaskEvent {
    TaskId task = kNoTask;
    /** false = fire (start the task), true = completion. */
    bool complete = false;
};

/**
 * Reusable per-execution buffers of TaskGraph::execute(): a run's
 * whole mutable state.
 *
 * Optional: execute() allocates its own when none is given. Passing the
 * same scratch to repeated executions (of any graphs) reuses the event
 * calendar, counter and per-resource buffers, eliminating steady-state
 * allocation; every run resets them, so a run never depends on what
 * ran before it on the same scratch. After a run, the scratch holds
 * that run's per-resource wait and next-free columns.
 * The post-run passes over a record (the observer replay, the slack
 * pass) take their buffers from it too (analysis()). A sweep keeps one
 * scratch per worker lane; a scratch must not be shared between
 * concurrent executions or passes.
 */
class ExecScratch
{
  public:
    ExecScratch() = default;

    /** A record reused by runs that need one only to derive their
     *  observers from or to audit (the caller asked for a trace,
     *  metrics or an audit, not for the record itself). */
    ExecRecord &observerRecord() { return observerRecord_; }

    /**
     * The last run's per-resource wait, indexed by resource id (size
     * the graph's resourceBound()): the summed gap between each task's
     * fire time and its actual start, charged to every resource the
     * task holds. This is a resource's contention, as opposed to its
     * utilization (TaskGraph::resourceBusy).
     */
    std::span<const PicoSeconds> resourceWait() const { return wait; }

    /** The last run's per-resource next-free time: when each
     *  resource's last holder ended (0 for an idle one). */
    std::span<const PicoSeconds>
    resourceNextFree() const
    {
        return nextFree;
    }

    /**
     * Buffers of the post-run passes over a record: the observer
     * replay (deriveObservers) and the critical path's slack pass.
     * Each pass sizes them to its graph and leaves them for the next,
     * so a lane's passes allocate only when a larger graph comes along.
     */
    struct Analysis {
        /** Replay: dependencies each task still waits on. */
        std::vector<std::uint32_t> unmet;
        /** Replay: pops seen at each queue depth, ready count and
         *  in-flight count (index = the value, at most the task
         *  count). All zero between passes: the fold clears what the
         *  replay counted. */
        std::vector<std::uint32_t> depthPops, readyPops, inflightPops;
        /** Slack pass: each task's latest end and latest start. */
        std::vector<PicoSeconds> lateEnd, lateStart;
    };
    Analysis &analysis() { return analysis_; }

  private:
    friend class TaskGraph;
    sim::CalendarQueue<TaskEvent> queue;
    std::vector<std::uint32_t> unmet;
    /** Per resource: earliest start of a new reservation, and the
     *  run's queueing time charged to it. */
    std::vector<PicoSeconds> nextFree, wait;
    /**
     * @name Recording-only buffers (touched when an ExecRecord is
     * attached; empty and untouched otherwise)
     *
     * Kept as plain 4-byte task slots refilled with one sentinel
     * assign() per recorded run. An epoch-stamped variant (8-byte
     * slots, no refill) measured consistently *slower* on the fig19
     * A/B — doubling the footprint of these two hot arrays costs more
     * in cache misses than the sequential memset-like refill saves.
     */
    ///@{
    std::vector<std::uint32_t> bindingDep; ///< dep that released each task
    std::vector<std::uint32_t> lastHolder; ///< last reserver per resource
    ///@}
    ExecRecord observerRecord_;
    Analysis analysis_;
};

/**
 * A graph's frozen successor CSR: the successors of task t are
 * ids[start[t]] .. ids[start[t + 1] - 1], in addDep order.
 */
struct SuccessorCsr {
    std::span<const std::uint32_t> start; ///< size N+1
    std::span<const std::uint32_t> ids;

    std::span<const std::uint32_t>
    of(std::size_t id) const
    {
        return ids.subspan(start[id], start[id + 1] - start[id]);
    }
};

/**
 * A directed acyclic graph of tasks with resource requirements.
 *
 * Build with addTask()/addDep(), then run execute(). The first
 * execution freezes the graph (further addTask/addDep calls are a bug);
 * a frozen graph may be executed repeatedly — and concurrently, each
 * run on its own scratch.
 */
class TaskGraph
{
  public:
    /** Append a task; @return its id. @pre not yet executed. */
    TaskId addTask(const Task &task);

    /** Id of @p name in the graph's name table, added on first use. */
    std::uint32_t intern(std::string_view name);

    /** Declare that @p task cannot start until @p dep has finished.
     *  @pre not yet executed. */
    void addDep(TaskId task, TaskId dep);

    /** Number of tasks in the graph. */
    std::size_t size() const { return durations_.size(); }

    TaskKind kind(TaskId id) const { return identity_->kinds[id]; }
    Phase phase(TaskId id) const { return identity_->phases[id]; }

    /** Rendered label of task @p id (see TaskIdentity::label). */
    std::string label(TaskId id) const { return identity_->label(id); }

    /** The identity table, shared so a trace can keep labelling its
     *  events after the graph is gone. */
    std::shared_ptr<const TaskIdentity>
    identity() const
    {
        return identity_;
    }

    /**
     * Record the category of every resource the graph's ids index
     * (the machine pool's category column), so post-run analysis can
     * group resources without the machine.
     */
    void
    setResourceCategories(std::vector<ResourceCategory> categories)
    {
        resourceCategories_ = std::move(categories);
    }

    /** Category of resource @p rid; None when no category was set. */
    ResourceCategory
    resourceCategory(std::size_t rid) const
    {
        return rid < resourceCategories_.size() ? resourceCategories_[rid]
                                                : ResourceCategory::None;
    }

    /** Occupancy time of task @p id. */
    PicoSeconds duration(TaskId id) const { return durations_[id]; }

    /** Every task's duration, indexed by TaskId. */
    std::span<const PicoSeconds> durations() const { return durations_; }

    /** Resource ids task @p id holds, in addTask order — a view of the
     *  resource CSR. */
    std::span<const std::uint32_t>
    resources(TaskId id) const
    {
        return {resIds_.data() + resStart_[id],
                resIds_.data() + resStart_[id + 1]};
    }

    /** Index of task @p id's first resource slot in the resource CSR:
     *  slot resourceOffset(id) + j holds resources(id)[j]. */
    std::size_t resourceOffset(TaskId id) const { return resStart_[id]; }

    /** One past the largest resource id any task holds (0 when none):
     *  the size of a run's per-resource columns. */
    std::size_t resourceBound() const { return resourceBound_; }

    /**
     * Each resource's busy time in every run, indexed by resource id
     * (size resourceBound()): the summed durations of the tasks holding
     * it. Every run reserves every slot once, so it does not depend on
     * the schedule and is frozen with the graph. Freezes the graph.
     */
    std::span<const PicoSeconds>
    resourceBusy() const
    {
        return freeze().resBusy;
    }

    /** Each resource's reservation count in every run, indexed like
     *  resourceBusy(). Freezes the graph. */
    std::span<const std::uint64_t>
    resourceReservations() const
    {
        return freeze().resCount;
    }

    /**
     * Execute the whole DAG to completion, from idle resources.
     *
     * When @p record is given, the run writes the execution record
     * (per-task start/finish, binding predecessors, per-resource
     * reservation order, event pop order — see
     * sim/exec_record.hh) that critical-path analysis consumes and
     * every observer is derived from. Recording is pure output: event
     * order and results are identical with it on.
     *
     * @param scratch optional reusable buffers (see ExecScratch); the
     *                run's per-resource wait is read from it afterwards.
     * @param record  optional execution record.
     * @return the makespan: completion time of the last task.
     */
    PicoSeconds execute(ExecScratch *scratch = nullptr,
                        ExecRecord *record = nullptr) const;

    /**
     * The frozen successor CSR: of(id) lists the tasks that depend on
     * @p id, in addDep order (post-run analysis walks the full edge
     * set, not just each task's binding predecessor). Freezes the
     * graph; a pass over many tasks takes the view once, so it pays the
     * freeze check once.
     */
    SuccessorCsr
    successorCsr() const
    {
        const Frozen &f = freeze();
        return {f.succStart, f.succIds};
    }

    /** Number of addDep calls naming @p id as the dependent task. */
    std::uint32_t dependencyCount(TaskId id) const { return depCount_[id]; }

  private:
    /**
     * The successor CSR and the per-resource totals, built once on
     * first execute. Heap-held (with its own once_flag, since templates
     * are executed concurrently) to keep TaskGraph movable.
     */
    struct Frozen {
        std::once_flag once;
        std::vector<std::uint32_t> succStart; ///< size N+1 once frozen
        std::vector<std::uint32_t> succIds;
        /** Summed durations and reservation counts per resource id
         *  (size resourceBound()): every run's busy and reservation
         *  totals. */
        std::vector<PicoSeconds> resBusy;
        std::vector<std::uint64_t> resCount;
    };

    /** Build the successor CSR and resource totals (thread-safe, runs
     *  once). */
    const Frozen &freeze() const;

    /** @name Task columns, indexed by TaskId */
    ///@{
    std::shared_ptr<TaskIdentity> identity_ =
        std::make_shared<TaskIdentity>();
    std::vector<PicoSeconds> durations_;
    std::vector<std::uint32_t> resStart_{0}; ///< size N+1
    std::vector<std::uint32_t> resIds_;
    std::vector<std::uint32_t> depCount_;
    ///@}
    std::size_t resourceBound_ = 0;
    std::vector<ResourceCategory> resourceCategories_;
    /** Build-time (dep, task) edges in addDep order; freeze() turns
     *  them into the CSR successor lists and releases them. */
    mutable std::vector<std::pair<TaskId, TaskId>> edges_;
    mutable std::unique_ptr<Frozen> frozen_ =
        std::make_unique<Frozen>();
};

} // namespace lergan

#endif // LERGAN_SIM_TASK_GRAPH_HH
