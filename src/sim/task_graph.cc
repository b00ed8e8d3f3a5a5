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
    LERGAN_ASSERT(task.resources < resourceSetCount(),
                  "addTask: resource set not interned");
    identity.kinds.push_back(task.kind);
    identity.phases.push_back(task.phase);
    identity.ops.push_back(task.op);
    identity.peers.push_back(task.peer);
    durations_.push_back(task.duration);
    taskSet_.push_back(task.resources);
    depCount_.push_back(0);
    return durations_.size() - 1;
}

ResourceSetId
TaskGraph::internResources(std::span<const std::size_t> resources)
{
    LERGAN_ASSERT(frozen_->succStart.empty(),
                  "internResources after the graph was executed");
    if (resources.empty())
        return kNoResources;
    std::uint64_t hash = 14695981039346656037ull; // FNV-1a over the ids
    for (const std::size_t rid : resources)
        hash = (hash ^ rid) * 1099511628211ull;
    for (auto [it, last] = setIndex_.equal_range(hash); it != last; ++it) {
        if (std::ranges::equal(members(it->second), resources))
            return it->second;
    }
    // A task reserves each resource once: a repeated id would make it
    // queue behind itself.
    std::vector<std::size_t> sorted(resources.begin(), resources.end());
    std::ranges::sort(sorted);
    LERGAN_ASSERT(std::ranges::adjacent_find(sorted) == sorted.end(),
                  "internResources: resource ", sorted.front(),
                  " listed twice");
    LERGAN_ASSERT(sorted.back() < ResourceClasses::kNone,
                  "internResources: resource id ", sorted.back(),
                  " too large");
    for (const std::size_t rid : resources)
        setRes_.push_back(static_cast<std::uint32_t>(rid));
    resourceBound_ = std::max(resourceBound_, sorted.back() + 1);
    setStart_.push_back(static_cast<std::uint32_t>(setRes_.size()));
    const auto id = static_cast<ResourceSetId>(resourceSetCount() - 1);
    setIndex_.emplace(hash, id);
    return id;
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

namespace {

/**
 * Make room for @p size entries in one reservation, doubling the
 * capacity as appending them one at a time would. An exact reservation
 * would make the next single append double the whole column, leaving a
 * finished graph up to twice its size.
 */
template <typename T>
void
growTo(std::vector<T> &column, std::size_t size)
{
    std::size_t capacity = std::max<std::size_t>(column.capacity(), 1);
    while (capacity < size)
        capacity *= 2;
    column.reserve(capacity);
}

/** Append @p copies copies of @p column's entries [from, to). */
template <typename T>
void
stampColumn(std::vector<T> &column, std::size_t from, std::size_t to,
            std::size_t copies)
{
    const std::size_t len = to - from, end = column.size();
    growTo(column, end + len * copies);
    column.resize(end + len * copies);
    for (std::size_t k = 0; k < copies; ++k)
        std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(from), len,
                    column.begin() +
                        static_cast<std::ptrdiff_t>(end + k * len));
}

} // namespace

TaskId
TaskGraph::repeat(Mark from, Mark to, std::size_t copies)
{
    LERGAN_ASSERT(frozen_->succStart.empty(),
                  "repeat after the graph was executed");
    LERGAN_ASSERT(from.tasks <= to.tasks && to.tasks <= size() &&
                      from.edges <= to.edges && to.edges <= edges_.size(),
                  "repeat: marks out of range");
    // The block's edges are exactly the edges into its tasks, and none
    // depends on a task after it.
    for (std::size_t e = from.edges; e < edges_.size(); ++e) {
        const auto [dep, task] = edges_[e];
        const bool inside = task >= from.tasks && task < to.tasks;
        LERGAN_ASSERT(inside == (e < to.edges), "repeat: edge into task ",
                      task, inside ? " added after" : " outside",
                      " the block [", from.tasks, ", ", to.tasks, ")");
        LERGAN_ASSERT(!inside || dep < to.tasks, "repeat: task ", task,
                      " depends on task ", dep, " after the block");
    }
    const TaskId first = size();
    const std::size_t len = to.tasks - from.tasks;
    TaskIdentity &identity = *identity_;
    stampColumn(identity.kinds, from.tasks, to.tasks, copies);
    stampColumn(identity.phases, from.tasks, to.tasks, copies);
    stampColumn(identity.ops, from.tasks, to.tasks, copies);
    stampColumn(identity.peers, from.tasks, to.tasks, copies);
    stampColumn(durations_, from.tasks, to.tasks, copies);
    stampColumn(taskSet_, from.tasks, to.tasks, copies);
    // Every edge into the block is in the range, so each copy's
    // dependency counts are the block's.
    stampColumn(depCount_, from.tasks, to.tasks, copies);
    growTo(edges_, edges_.size() + (to.edges - from.edges) * copies);
    for (std::size_t k = 0; k < copies; ++k) {
        const std::size_t shift = first + k * len - from.tasks;
        for (std::size_t e = from.edges; e < to.edges; ++e) {
            const auto [dep, task] = edges_[e];
            edges_.emplace_back(dep >= from.tasks ? dep + shift : dep,
                                task + shift);
        }
    }
    return first;
}

ResourceClasses
TaskGraph::resourceClasses() const
{
    const Frozen &f = freeze();
    return {taskSet_,    f.setClassStart, f.setClass,
            f.slotStart, f.classOf,       f.classCount};
}

const TaskGraph::Frozen &
TaskGraph::freeze() const
{
    Frozen &f = *frozen_;
    std::call_once(f.once, [this, &f] {
        const std::size_t n = size();
        // TaskEvent and the record's pop-order column carry a task id
        // and a flag in 32 bits.
        LERGAN_ASSERT(n <= UINT32_MAX / 2, "task graph too large for ",
                      "32-bit task events: ", n, " tasks");
        // CSR successor lists via a counting sort over the edge list:
        // stable, so each task's successors keep their addDep order —
        // the firing-order contract depends on it.
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
        std::unordered_multimap<std::uint64_t, ResourceSetId>().swap(
            setIndex_);

        // Every run reserves each task's set once for the task's
        // duration: a set's holders and busy time are fixed by the
        // graph.
        const std::size_t sets = resourceSetCount();
        std::vector<std::uint64_t> holders(sets, 0);
        std::vector<PicoSeconds> busy(sets, 0);
        for (TaskId id = 0; id < n; ++id) {
            ++holders[taskSet_[id]];
            busy[taskSet_[id]] += durations_[id];
        }

        // Partition refinement over the held sets: each set splits
        // every class it touches into its members and the rest, so two
        // resources end up in one class exactly when the same sets, and
        // hence the same tasks, hold them. Raw class 0 is "in no set
        // yet"; split[c] is the class the current set moves c's members
        // to, made fresh the first time the set touches c (splitBy[c]
        // names the last set that split c).
        std::vector<std::uint32_t> raw(resourceBound_, 0);
        std::vector<std::uint32_t> split{0}, splitBy{0};
        for (std::size_t set = 1; set < sets; ++set) {
            if (holders[set] == 0)
                continue;
            for (const std::uint32_t rid : members(set)) {
                const std::uint32_t old = raw[rid];
                if (splitBy[old] != set) {
                    splitBy[old] = static_cast<std::uint32_t>(set);
                    split[old] = static_cast<std::uint32_t>(split.size());
                    split.push_back(0);
                    splitBy.push_back(0);
                }
                raw[rid] = split[old];
            }
        }

        // Number the classes in first-occurrence order and list each
        // held set's classes in the order its list first names them,
        // with the resource that names each first: a binding class's
        // first resource is the resource the binding rule picks, the
        // first of the most contended resources in list order.
        std::vector<std::uint32_t> dense(split.size(),
                                         ResourceClasses::kNone);
        std::vector<std::uint32_t> listedBy;
        f.setClassStart.assign(1, 0);
        f.resBusy.assign(resourceBound_, 0);
        f.resCount.assign(resourceBound_, 0);
        for (std::size_t set = 0; set < sets; ++set) {
            if (holders[set] != 0) {
                for (const std::uint32_t rid : members(set)) {
                    std::uint32_t &c = dense[raw[rid]];
                    if (c == ResourceClasses::kNone) {
                        c = static_cast<std::uint32_t>(listedBy.size());
                        listedBy.push_back(0);
                    }
                    if (listedBy[c] != set + 1) {
                        listedBy[c] = static_cast<std::uint32_t>(set + 1);
                        f.setClass.push_back(c);
                        f.setClassFirst.push_back(rid);
                    }
                    f.resBusy[rid] += busy[set];
                    f.resCount[rid] += holders[set];
                }
            }
            f.setClassStart.push_back(
                static_cast<std::uint32_t>(f.setClass.size()));
        }
        f.classCount = listedBy.size();
        f.classOf.resize(resourceBound_);
        for (std::size_t rid = 0; rid < resourceBound_; ++rid)
            f.classOf[rid] = raw[rid] == 0 ? ResourceClasses::kNone
                                           : dense[raw[rid]];

        // The record's slots: one per class a task holds.
        f.slotStart.resize(n + 1);
        std::uint64_t slots = 0;
        for (TaskId id = 0; id < n; ++id) {
            f.slotStart[id] = static_cast<std::uint32_t>(slots);
            slots += f.setClassStart[taskSet_[id] + 1] -
                     f.setClassStart[taskSet_[id]];
        }
        LERGAN_ASSERT(slots <= UINT32_MAX, "too many record slots: ",
                      slots);
        f.slotStart[n] = static_cast<std::uint32_t>(slots);
    });
    return f;
}

PicoSeconds
TaskGraph::execute(ExecScratch *scratch, ExecRecord *record,
                   std::span<const PicoSeconds> durations) const
{
    const Frozen &f = freeze();
    const std::size_t n = size();
    LERGAN_ASSERT(durations.empty() || durations.size() == n,
                  "execute: ", durations.size(), " durations for ", n,
                  " tasks");
    const PicoSeconds *const duration =
        durations.empty() ? durations_.data() : durations.data();
    PicoSeconds makespan = 0;

    ExecScratch local;
    ExecScratch &s = scratch ? *scratch : local;
    s.queue.reset();
    s.unmet.assign(depCount_.begin(), depCount_.end());
    s.classNextFree.assign(f.classCount, 0);
    s.classWait.assign(f.classCount, 0);
    if (record) {
        s.bindingDep.assign(n, ExecRecord::kNoTask32);
        s.lastHolder.assign(f.classCount, ExecRecord::kNoTask32);
        // Every slot is written at fire/completion time, so a reused
        // record only pays for allocation once, not re-zeroing.
        record->start.resize(n);
        record->end.resize(n);
        record->bindingPred.resize(n);
        record->bindingKind.resize(n);
        record->bindingRes.resize(n);
        record->resPrev.resize(f.slotStart[n]);
        record->popOrder.resize(2 * n);
        record->lastTask = kNoTask;
        record->makespan = 0;
    }
    PicoSeconds *const nextFree = s.classNextFree.data();
    PicoSeconds *const wait = s.classWait.data();
    const std::uint32_t *const setClass = f.setClass.data();

    std::size_t completed = 0;
    std::size_t popped = 0;

    for (TaskId id = 0; id < n; ++id) {
        if (s.unmet[id] == 0)
            s.queue.scheduleAt(0, TaskEvent(id, false));
    }

    // The POD event loop. A fire event commits FIFO reservations on
    // every resource class the task needs and schedules the completion
    // event; a completion releases the successors in addDep order. A
    // task fires the instant its last dependency completes (completions
    // pop in time order), so every fire is scheduled at now() and rides
    // the queue's same-instant lane. Events pop in (time, schedule
    // order), so equal-time events fire in the order they were
    // scheduled and every run is deterministic.
    TaskEvent event;
    while (s.queue.pop(event)) {
        const TaskId id = event.task();
        const PicoSeconds now = s.queue.now();
        if (!event.complete()) {
            const ResourceSetId set = taskSet_[id];
            const std::uint32_t first = f.setClassStart[set];
            const std::uint32_t last = f.setClassStart[set + 1];
            // Binding rule: the fire time (now) is the ready time — the
            // moment the last dependency released the task. If some
            // class was still occupied past that moment, the task
            // queued and the *most* contended class's previous holder
            // is what actually delayed it (the first such class in
            // list order); otherwise the releasing dependency did. Ties
            // between a dependency and a class that freed at the same
            // instant bind to the dependency (a class binds only when
            // its free time strictly exceeds ready).
            PicoSeconds start = now;
            std::uint32_t bind = last;
            for (std::uint32_t k = first; k < last; ++k) {
                if (nextFree[setClass[k]] > start) {
                    start = nextFree[setClass[k]];
                    bind = k;
                }
            }
            const PicoSeconds end = start + duration[id];
            // A task that could not start when it fired queued on
            // every resource it holds.
            const PicoSeconds queued = start - now;
            std::uint32_t *const prev =
                record ? record->resPrev.data() + f.slotStart[id] : nullptr;
            for (std::uint32_t k = first; k < last; ++k) {
                const std::uint32_t c = setClass[k];
                LERGAN_ASSERT(nextFree[c] <= start,
                              "non-FIFO reservation for ", label(id));
                nextFree[c] = end;
                wait[c] += queued;
                if (record) {
                    prev[k - first] = s.lastHolder[c];
                    s.lastHolder[c] = static_cast<std::uint32_t>(id);
                }
            }
            if (record) {
                // Every recorded pop, fire or completion, is appended to
                // the pop-order column the observers are derived from.
                record->popOrder[popped++] = ExecRecord::popEntry(id, false);
                record->start[id] = start;
                if (bind != last) {
                    record->bindingKind[id] = BindingKind::Resource;
                    record->bindingPred[id] = prev[bind - first];
                    record->bindingRes[id] = f.setClassFirst[bind];
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
            s.queue.scheduleAt(end, TaskEvent(id, true));
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
                    s.queue.scheduleAt(now, TaskEvent(succ, false));
                }
            }
        }
    }

    LERGAN_ASSERT(completed == n,
                  "task graph has a cycle or orphaned dependency: ",
                  completed, " of ", n, " tasks completed");

    // Every resource of a class holds its class's columns.
    s.nextFree.resize(resourceBound_);
    s.wait.resize(resourceBound_);
    for (std::size_t rid = 0; rid < resourceBound_; ++rid) {
        const std::uint32_t c = f.classOf[rid];
        s.nextFree[rid] = c == ResourceClasses::kNone ? 0 : nextFree[c];
        s.wait[rid] = c == ResourceClasses::kNone ? 0 : wait[c];
    }
    return makespan;
}

} // namespace lergan
