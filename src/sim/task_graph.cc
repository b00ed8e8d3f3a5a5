#include "sim/task_graph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lergan {

std::string
TaskIdentity::label(TaskId id) const
{
    static constexpr const char *kPrefix[] = {"",        "xfer:", "load:",
                                              "update:", "ctrl:", ""};
    std::string text = kPrefix[static_cast<std::size_t>(kinds[id])];
    text += names[ops[id]];
    if (kinds[id] == TaskKind::Transfer)
        text += "->" + names[peers[id]];
    return text;
}

std::uint32_t
TaskGraph::intern(std::string_view name)
{
    // A graph names its ops, states and markers: at most a few hundred,
    // interned once per builder, so a linear scan is plenty.
    std::vector<std::string> &names = identity_->names;
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end())
        return static_cast<std::uint32_t>(it - names.begin());
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

TaskId
TaskGraph::addTask(const Task &task)
{
    LERGAN_ASSERT(frozen_->succStart.empty(),
                  "addTask after the graph was executed");
    TaskIdentity &identity = *identity_;
    LERGAN_ASSERT(task.op < identity.names.size() &&
                      task.peer < identity.names.size(),
                  "addTask: name id not interned");
    identity.kinds.push_back(task.kind);
    identity.phases.push_back(task.phase);
    identity.ops.push_back(task.op);
    identity.peers.push_back(task.peer);
    durations_.push_back(task.duration);
    for (std::size_t rid : task.resources) {
        resIds_.push_back(static_cast<std::uint32_t>(rid));
        resourceBound_ = std::max(resourceBound_, rid + 1);
    }
    resStart_.push_back(static_cast<std::uint32_t>(resIds_.size()));
    depCount_.push_back(0);
    return durations_.size() - 1;
}

void
TaskGraph::addDep(TaskId task, TaskId dep)
{
    LERGAN_ASSERT(frozen_->succStart.empty(),
                  "addDep after the graph was executed");
    LERGAN_ASSERT(task < size(), "addDep: bad task id ", task);
    LERGAN_ASSERT(dep < size(), "addDep: bad dep id ", dep);
    LERGAN_ASSERT(dep != task, "task cannot depend on itself");
    edges_.emplace_back(dep, task);
    depCount_[task]++;
}

const TaskGraph::Frozen &
TaskGraph::freeze() const
{
    Frozen &f = *frozen_;
    std::call_once(f.once, [this, &f] {
        // CSR successor lists via a counting sort over the edge list:
        // stable, so each task's successors keep their addDep order —
        // the firing-order contract depends on it.
        const std::size_t n = size();
        f.succStart.assign(n + 1, 0);
        for (const auto &[dep, task] : edges_)
            f.succStart[dep + 1]++;
        for (std::size_t id = 0; id < n; ++id)
            f.succStart[id + 1] += f.succStart[id];
        f.succIds.resize(edges_.size());
        std::vector<std::uint32_t> fill(f.succStart.begin(),
                                        f.succStart.end() - 1);
        for (const auto &[dep, task] : edges_)
            f.succIds[fill[dep]++] = static_cast<std::uint32_t>(task);
        std::vector<std::pair<TaskId, TaskId>>().swap(edges_);

        // Every run reserves every slot once for its task's duration,
        // so each resource's busy time and reservation count are fixed
        // by the graph.
        f.resBusy.assign(resourceBound_, 0);
        f.resCount.assign(resourceBound_, 0);
        for (TaskId id = 0; id < n; ++id) {
            for (std::uint32_t r = resStart_[id]; r < resStart_[id + 1];
                 ++r) {
                f.resBusy[resIds_[r]] += durations_[id];
                ++f.resCount[resIds_[r]];
            }
        }
    });
    return f;
}

PicoSeconds
TaskGraph::execute(ExecScratch *scratch, ExecRecord *record) const
{
    const Frozen &f = freeze();
    const std::size_t n = size();
    PicoSeconds makespan = 0;

    ExecScratch local;
    ExecScratch &s = scratch ? *scratch : local;
    s.queue.reset();
    s.unmet.assign(depCount_.begin(), depCount_.end());
    s.nextFree.assign(resourceBound_, 0);
    s.wait.assign(resourceBound_, 0);
    if (record) {
        LERGAN_ASSERT(n <= UINT32_MAX / 2, "recorded graph too large for "
                      "the pop-order column: ", n, " tasks");
        s.bindingDep.assign(n, ExecRecord::kNoTask32);
        s.lastHolder.assign(resourceBound_, ExecRecord::kNoTask32);
        // Every slot is written at fire/completion time, so a reused
        // record only pays for allocation once, not re-zeroing.
        record->start.resize(n);
        record->end.resize(n);
        record->bindingPred.resize(n);
        record->bindingKind.resize(n);
        record->bindingRes.resize(n);
        record->resPrev.resize(resIds_.size());
        record->popOrder.resize(2 * n);
        record->lastTask = kNoTask;
        record->makespan = 0;
    }
    PicoSeconds *const nextFree = s.nextFree.data();
    PicoSeconds *const wait = s.wait.data();

    std::size_t completed = 0;
    std::size_t popped = 0;

    for (TaskId id = 0; id < n; ++id) {
        if (s.unmet[id] == 0)
            s.queue.scheduleAt(0, TaskEvent{id, false});
    }

    // The POD event loop. A fire event commits FIFO reservations on
    // every resource the task needs and schedules the completion event;
    // a completion releases the successors in addDep order. A task
    // fires the instant its last dependency completes (completions pop
    // in time order), so every fire is scheduled at now() and rides
    // the queue's same-instant lane. Events pop in (time, schedule
    // order), so equal-time events fire in the order they were
    // scheduled and every run is deterministic.
    TaskEvent event;
    while (s.queue.pop(event)) {
        const TaskId id = event.task;
        const PicoSeconds now = s.queue.now();
        if (!event.complete) {
            PicoSeconds start = now;
            const std::uint32_t resBegin = resStart_[id];
            const std::uint32_t resEnd = resStart_[id + 1];
            if (!record) {
                for (std::uint32_t r = resBegin; r < resEnd; ++r)
                    start = std::max(start, nextFree[resIds_[r]]);
            } else {
                // Every recorded pop, fire or completion, is appended to
                // the pop-order column the observers are derived from.
                record->popOrder[popped++] = ExecRecord::popEntry(id, false);
                // Binding rule: the fire time (now) is the ready time —
                // the moment the last dependency released the task. If
                // some resource was still occupied past that moment,
                // the task queued and the *most* contended resource's
                // previous holder is what actually delayed it;
                // otherwise the releasing dependency did. Ties between
                // a dependency and a resource that freed at the same
                // instant bind to the dependency (a resource binds only
                // when its free time strictly exceeds ready, i.e. the
                // fire-time start value).
                std::uint32_t bind_slot = ExecRecord::kNoResource;
                for (std::uint32_t r = resBegin; r < resEnd; ++r) {
                    const std::uint32_t rid = resIds_[r];
                    record->resPrev[r] = s.lastHolder[rid];
                    s.lastHolder[rid] = static_cast<std::uint32_t>(id);
                    if (nextFree[rid] > start) {
                        start = nextFree[rid];
                        bind_slot = r;
                    }
                }
                record->start[id] = start;
                if (bind_slot != ExecRecord::kNoResource) {
                    record->bindingKind[id] = BindingKind::Resource;
                    record->bindingPred[id] = record->resPrev[bind_slot];
                    record->bindingRes[id] = resIds_[bind_slot];
                } else if (s.bindingDep[id] != ExecRecord::kNoTask32) {
                    record->bindingKind[id] = BindingKind::Dependency;
                    record->bindingPred[id] = s.bindingDep[id];
                    record->bindingRes[id] = ExecRecord::kNoResource;
                } else {
                    record->bindingKind[id] = BindingKind::None;
                    record->bindingPred[id] = ExecRecord::kNoTask32;
                    record->bindingRes[id] = ExecRecord::kNoResource;
                }
            }
            const PicoSeconds end = start + durations_[id];
            for (std::uint32_t r = resBegin; r < resEnd; ++r) {
                PicoSeconds &free = nextFree[resIds_[r]];
                LERGAN_ASSERT(free <= start, "non-FIFO reservation for ",
                              label(id));
                free = end;
            }
            // A task that could not start when it fired queued on
            // every resource it holds.
            if (start != now) {
                for (std::uint32_t r = resBegin; r < resEnd; ++r)
                    wait[resIds_[r]] += start - now;
            }
            s.queue.scheduleAt(end, TaskEvent{id, true});
        } else {
            makespan = std::max(makespan, now);
            ++completed;
            if (record) {
                record->popOrder[popped++] = ExecRecord::popEntry(id, true);
                record->end[id] = now;
                if (now >= record->makespan) {
                    record->makespan = now;
                    record->lastTask = id;
                }
            }
            for (std::uint32_t e = f.succStart[id];
                 e < f.succStart[id + 1]; ++e) {
                const TaskId succ = f.succIds[e];
                LERGAN_ASSERT(s.unmet[succ] > 0, "dependency underflow");
                if (--s.unmet[succ] == 0) {
                    if (record)
                        s.bindingDep[succ] = static_cast<std::uint32_t>(id);
                    s.queue.scheduleAt(now, TaskEvent{succ, false});
                }
            }
        }
    }

    LERGAN_ASSERT(completed == n,
                  "task graph has a cycle or orphaned dependency: ",
                  completed, " of ", n, " tasks completed");
    return makespan;
}

} // namespace lergan
