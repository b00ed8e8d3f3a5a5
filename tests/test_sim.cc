/**
 * @file
 * Unit tests for the discrete-event kernel, resources and task graphs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/calendar_queue.hh"
#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "task_helpers.hh"

namespace lergan {
namespace {

/** Drain @p queue, returning the task ids in firing order. */
std::vector<TaskId>
drain(sim::CalendarQueue<TaskEvent> &queue)
{
    std::vector<TaskId> order;
    TaskEvent event;
    while (queue.pop(event))
        order.push_back(event.task);
    return order;
}

TEST(EventQueue, FiresInTimeOrder)
{
    sim::CalendarQueue<TaskEvent> queue;
    queue.scheduleAt(30, TaskEvent{3});
    queue.scheduleAt(10, TaskEvent{1});
    queue.scheduleAt(20, TaskEvent{2});
    EXPECT_EQ(drain(queue), (std::vector<TaskId>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, SameTimeFiresInScheduleOrder)
{
    sim::CalendarQueue<TaskEvent> queue;
    for (TaskId i = 0; i < 5; ++i)
        queue.scheduleAt(7, TaskEvent{i});
    EXPECT_EQ(drain(queue), (std::vector<TaskId>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore)
{
    // The executor's pattern: handling one event schedules the next
    // (a fire schedules its completion) while the queue is being drained.
    sim::CalendarQueue<TaskEvent> queue;
    queue.scheduleAt(1, TaskEvent{0, false});
    std::vector<TaskId> fired;
    TaskEvent event;
    while (queue.pop(event)) {
        fired.push_back(event.task);
        if (!event.complete)
            queue.scheduleAt(queue.now() + 5, TaskEvent{1, true});
    }
    EXPECT_EQ(fired, (std::vector<TaskId>{0, 1}));
    EXPECT_EQ(queue.now(), 6u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ResetClearsState)
{
    sim::CalendarQueue<TaskEvent> queue;
    queue.scheduleAt(5, TaskEvent{0});
    queue.scheduleAt(500, TaskEvent{1});
    TaskEvent event;
    ASSERT_TRUE(queue.pop(event));
    queue.reset();
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.now(), 0u);
    // Time starts over: scheduling before the old now() is legal again.
    queue.scheduleAt(1, TaskEvent{2});
    EXPECT_EQ(drain(queue), (std::vector<TaskId>{2}));
}

TEST(EventQueueDeath, PastSchedulingIsABug)
{
    sim::CalendarQueue<TaskEvent> queue;
    queue.scheduleAt(10, TaskEvent{0});
    TaskEvent event;
    ASSERT_TRUE(queue.pop(event));
    EXPECT_DEATH(queue.scheduleAt(5, TaskEvent{1}), "past");
}

TEST(Resource, FifoReservations)
{
    // Three tasks on one resource: two ready at 0, one ready at 50 (it
    // waits on a resource-free delay task).
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph graph;
    const TaskId first = addNamedTask(graph, "first", {r}, 10);
    const TaskId second = addNamedTask(graph, "second", {r}, 10);
    const TaskId delay = addNamedTask(graph, "delay", {}, 50);
    const TaskId late = addNamedTask(graph, "late", {r}, 10);
    graph.addDep(late, delay);
    ExecRecord record;
    graph.execute(pool, nullptr, &record);
    EXPECT_EQ(record.start[first], 0u);
    EXPECT_EQ(record.start[second], 10u); // queued behind the first
    EXPECT_EQ(record.start[late], 50u);   // idle gap honored
    EXPECT_EQ(pool.busyTime(r), 30u);
    EXPECT_EQ(pool.reservations(r), 3u);
    EXPECT_EQ(pool.nextFree(r), 60u);
}

TEST(Resource, ResetForgetsHistory)
{
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph graph;
    addNamedTask(graph, "t", {r}, 100);
    graph.execute(pool);
    EXPECT_EQ(pool.nextFree(r), 100u);
    pool.resetAll();
    EXPECT_EQ(pool.nextFree(r), 0u);
    EXPECT_EQ(pool.busyTime(r), 0u);
}

TEST(TaskGraph, QueuedTaskChargesItsWaitToEveryResourceItHolds)
{
    // Both tasks fire at 0; the second queues behind the first on the
    // shared unit until 30. Its wait (start 30 - fire 0) is charged to
    // each of its reservations, the idle side resource's included.
    ResourcePool pool;
    const auto shared = pool.create("shared", ResourceCategory::Other);
    const auto side = pool.create("side", ResourceCategory::Other);
    TaskGraph graph;
    addNamedTask(graph, "first", {shared}, 30);
    const TaskId second = addNamedTask(graph, "second", {shared, side}, 5);
    ExecRecord record;
    EXPECT_EQ(graph.execute(pool, nullptr, &record), 35u);
    EXPECT_EQ(record.start[second], 30u);
    EXPECT_EQ(pool.waitTime(shared), 30u);
    EXPECT_EQ(pool.waitTime(side), 30u);
    EXPECT_EQ(pool.busyTime(shared), 35u);
    EXPECT_EQ(pool.reservations(side), 1u);
}

TEST(TaskGraph, ChainRespectsDependencies)
{
    ResourcePool pool;
    const auto r = pool.create("unit", ResourceCategory::Other);
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r}, 10);
    const TaskId b = addNamedTask(graph, "b", {r}, 20);
    graph.addDep(b, a);
    ExecRecord record;
    const PicoSeconds makespan = graph.execute(pool, nullptr, &record);
    EXPECT_EQ(makespan, 30u);
    EXPECT_EQ(record.end[a], 10u);
    EXPECT_EQ(record.end[b], 30u);
}

TEST(TaskGraph, IndependentTasksContendOnSharedResource)
{
    ResourcePool pool;
    const auto r = pool.create("unit", ResourceCategory::Other);
    TaskGraph graph;
    for (int i = 0; i < 4; ++i)
        addNamedTask(graph, "t", {r}, 10);
    const PicoSeconds makespan = graph.execute(pool);
    EXPECT_EQ(makespan, 40u); // serialized on one resource
}

TEST(TaskGraph, IndependentTasksOnDistinctResourcesOverlap)
{
    ResourcePool pool;
    TaskGraph graph;
    for (int i = 0; i < 4; ++i) {
        const auto r = pool.create("unit" + std::to_string(i),
                                   ResourceCategory::Other);
        addNamedTask(graph, "t", {r}, 10);
    }
    EXPECT_EQ(graph.execute(pool), 10u);
}

TEST(TaskGraph, PipelineOverlapsStages)
{
    // Two-stage pipeline, 3 items: makespan = (3 + 2 - 1) * 10.
    ResourcePool pool;
    const auto s1 = pool.create("stage1", ResourceCategory::Other);
    const auto s2 = pool.create("stage2", ResourceCategory::Other);
    TaskGraph graph;
    for (int item = 0; item < 3; ++item) {
        const TaskId a = addNamedTask(graph, "s1", {s1}, 10);
        const TaskId b = addNamedTask(graph, "s2", {s2}, 10);
        graph.addDep(b, a);
    }
    EXPECT_EQ(graph.execute(pool), 40u);
}

TEST(TaskGraph, MultiResourceTaskHoldsAll)
{
    ResourcePool pool;
    const auto r1 = pool.create("r1", ResourceCategory::Other);
    const auto r2 = pool.create("r2", ResourceCategory::Other);
    TaskGraph graph;
    addNamedTask(graph, "uses r1", {r1}, 10);
    addNamedTask(graph, "uses both", {r1, r2}, 10);
    addNamedTask(graph, "uses r2", {r2}, 10);
    const PicoSeconds makespan = graph.execute(pool);
    // The both-task starts after r1 frees; the r2-task waits for it.
    EXPECT_EQ(makespan, 30u);
}

TEST(TaskGraph, ZeroDurationBarrier)
{
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r}, 15);
    const TaskId barrier = addNamedTask(graph, "barrier", {}, 0);
    const TaskId b = addNamedTask(graph, "b", {r}, 5);
    graph.addDep(barrier, a);
    graph.addDep(b, barrier);
    ExecRecord record;
    const PicoSeconds makespan = graph.execute(pool, nullptr, &record);
    EXPECT_EQ(record.end[barrier], 15u);
    EXPECT_EQ(makespan, 20u);
}

TEST(TaskGraph, ReexecutableAfterPoolReset)
{
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph graph;
    addNamedTask(graph, "a", {r}, 10);
    EXPECT_EQ(graph.execute(pool), 10u);
    pool.resetAll();
    EXPECT_EQ(graph.execute(pool), 10u);
}

TEST(TaskGraph, ScratchReuseMatchesFreshExecution)
{
    ResourcePool pool;
    const auto r0 = pool.create("r0", ResourceCategory::Other);
    const auto r1 = pool.create("r1", ResourceCategory::Other);
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r0}, 10);
    const TaskId b = addNamedTask(graph, "b", {r1}, 20);
    const TaskId c = addNamedTask(graph, "c", {r0, r1}, 5);
    graph.addDep(c, a);
    graph.addDep(c, b);

    ExecRecord fresh;
    const PicoSeconds makespan = graph.execute(pool, nullptr, &fresh);
    ExecScratch scratch;
    for (int round = 0; round < 3; ++round) {
        pool.resetAll();
        ExecRecord reused;
        EXPECT_EQ(graph.execute(pool, &scratch, &reused), makespan);
        EXPECT_EQ(reused.end, fresh.end);
        EXPECT_EQ(reused.popOrder, fresh.popOrder);
    }
}

/**
 * A seeded DAG whose tasks contend on a few resources; @p deps records
 * every addDep call as (task, dep) in call order.
 */
TaskGraph
makeContendedGraph(std::uint64_t seed, std::size_t resources,
                   std::vector<std::pair<TaskId, TaskId>> &deps)
{
    Rng rng(seed);
    TaskGraph graph;
    for (TaskId id = 0; id < 60; ++id) {
        std::vector<std::size_t> res;
        if (rng.nextBounded(4) != 0)
            res.push_back(rng.nextBounded(resources));
        addNamedTask(graph, "t", res, 1 + rng.nextBounded(20));
        // Interleave deps of different tasks so each dep's successor
        // list is assembled out of call order.
        for (std::uint64_t d = rng.nextBounded(4); id > 0 && d > 0; --d) {
            const TaskId dep = rng.nextBounded(id);
            graph.addDep(id, dep);
            deps.emplace_back(id, dep);
        }
    }
    return graph;
}

TEST(TaskGraph, ColumnsKeepEveryTask)
{
    TaskGraph graph;
    EXPECT_EQ(graph.resourceBound(), 0u);
    addNamedTask(graph, "a", {2, 0}, 10);
    addNamedTask(graph, "barrier", {}, 0);
    addNamedTask(graph, "b", {5}, 7);
    ASSERT_EQ(graph.size(), 3u);
    EXPECT_EQ(graph.label(0), "a");
    EXPECT_EQ(graph.label(2), "b");
    EXPECT_EQ(graph.duration(0), 10u);
    EXPECT_EQ(graph.duration(1), 0u);
    EXPECT_EQ(std::vector<PicoSeconds>(graph.durations().begin(),
                                       graph.durations().end()),
              (std::vector<PicoSeconds>{10, 0, 7}));
    const auto a = graph.resources(0);
    EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              (std::vector<std::uint32_t>{2, 0}));
    EXPECT_TRUE(graph.resources(1).empty());
    EXPECT_EQ(graph.resourceOffset(0), 0u);
    EXPECT_EQ(graph.resourceOffset(1), 2u);
    EXPECT_EQ(graph.resourceOffset(2), 2u);
    EXPECT_EQ(graph.resourceBound(), 6u);
}

TEST(TaskGraph, LabelsRenderFromTheTypedIdentity)
{
    TaskGraph graph;
    const std::uint32_t fwd = graph.intern("G.l1.fc@G.fwd");
    const std::uint32_t err = graph.intern("D.l2.conv@D.bwd_err");
    EXPECT_EQ(graph.intern("G.l1.fc@G.fwd"), fwd); // interned once
    const std::uint32_t state = graph.intern("train_disc");
    graph.addTask({TaskKind::Compute, Phase::GFwd, fwd, 0, {}, 0});
    graph.addTask(
        {TaskKind::Transfer, Phase::Transfers, fwd, err, {}, 0});
    graph.addTask({TaskKind::Load, Phase::Transfers, err, 0, {}, 0});
    graph.addTask({TaskKind::Update, Phase::Updates, err, 0, {}, 0});
    graph.addTask({TaskKind::Control, Phase::Other, state, 0, {}, 0});
    const std::uint32_t a0 = graph.intern("a0");
    graph.addTask({TaskKind::Marker, Phase::Other, a0, 0, {}, 0});
    const std::vector<std::string> labels = {
        "G.l1.fc@G.fwd",
        "xfer:G.l1.fc@G.fwd->D.l2.conv@D.bwd_err",
        "load:D.l2.conv@D.bwd_err",
        "update:D.l2.conv@D.bwd_err",
        "ctrl:train_disc",
        "a0",
    };
    ASSERT_EQ(graph.size(), labels.size());
    for (TaskId id = 0; id < graph.size(); ++id)
        EXPECT_EQ(graph.label(id), labels[id]) << "task " << id;
    EXPECT_EQ(graph.kind(1), TaskKind::Transfer);
    EXPECT_EQ(graph.phase(0), Phase::GFwd);
    EXPECT_EQ(graph.phase(3), Phase::Updates);
    // The shared table stays readable after the graph is gone.
    std::shared_ptr<const TaskIdentity> identity = graph.identity();
    graph = TaskGraph();
    EXPECT_EQ(identity->label(1), labels[1]);
    EXPECT_EQ(identity->peers[1], err);
}

TEST(TaskGraph, SuccessorsKeepAddDepOrder)
{
    std::vector<std::pair<TaskId, TaskId>> deps;
    const TaskGraph graph = makeContendedGraph(7, 3, deps);
    std::vector<std::vector<TaskId>> expect(graph.size());
    std::vector<std::uint32_t> count(graph.size(), 0);
    for (const auto &[task, dep] : deps) {
        expect[dep].push_back(task);
        ++count[task];
    }
    for (TaskId id = 0; id < graph.size(); ++id) {
        const auto succ = graph.successorCsr().of(id);
        EXPECT_EQ(std::vector<TaskId>(succ.begin(), succ.end()),
                  expect[id])
            << "task " << id;
        EXPECT_EQ(graph.dependencyCount(id), count[id]) << "task " << id;
    }
}

TEST(TaskGraph, RebuiltFromSuccessorsExecutesIdentically)
{
    std::vector<std::pair<TaskId, TaskId>> deps;
    const TaskGraph graph = makeContendedGraph(11, 3, deps);
    ResourcePool pool;
    for (int r = 0; r < 3; ++r)
        pool.create("r" + std::to_string(r), ResourceCategory::Other);
    ExecRecord original;
    graph.execute(pool, nullptr, &original);

    // Re-declare every edge dep-major from the CSR: a different addDep
    // call order with the same per-dependency successor order.
    TaskGraph rebuilt;
    for (TaskId id = 0; id < graph.size(); ++id) {
        const auto res = graph.resources(id);
        addNamedTask(rebuilt, graph.label(id), {res.begin(), res.end()},
                     graph.duration(id));
    }
    for (TaskId dep = 0; dep < graph.size(); ++dep)
        for (const TaskId task : graph.successorCsr().of(dep))
            rebuilt.addDep(task, dep);
    pool.resetAll();
    ExecRecord copy;
    rebuilt.execute(pool, nullptr, &copy);

    EXPECT_EQ(copy.start, original.start);
    EXPECT_EQ(copy.end, original.end);
    EXPECT_EQ(copy.bindingPred, original.bindingPred);
    EXPECT_EQ(copy.bindingKind, original.bindingKind);
    EXPECT_EQ(copy.bindingRes, original.bindingRes);
    EXPECT_EQ(copy.resPrev, original.resPrev);
    EXPECT_EQ(copy.popOrder, original.popOrder);
    EXPECT_EQ(copy.lastTask, original.lastTask);
    EXPECT_EQ(copy.makespan, original.makespan);
}

TEST(TaskGraph, MovableAcrossBuildAndExecute)
{
    // Templates move frozen graphs into shared caches; both a built-but-
    // unexecuted and an already-executed graph must survive the move.
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph built;
    addNamedTask(built, "a", {r}, 7);
    TaskGraph moved = std::move(built);
    EXPECT_EQ(moved.execute(pool), 7u);

    pool.resetAll();
    TaskGraph again = std::move(moved);
    EXPECT_EQ(again.execute(pool), 7u);
}

TEST(TaskGraphDeath, CycleIsDetected)
{
    ResourcePool pool;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {}, 1);
    const TaskId b = addNamedTask(graph, "b", {}, 1);
    graph.addDep(a, b);
    graph.addDep(b, a);
    EXPECT_DEATH(graph.execute(pool), "cycle");
}

TEST(TaskGraphDeath, ResourceOutsideThePoolIsABug)
{
    ResourcePool pool;
    const auto r = pool.create("r", ResourceCategory::Other);
    TaskGraph graph;
    addNamedTask(graph, "in the pool", {r}, 1);
    addNamedTask(graph, "past the pool", {r + 1}, 1);
    EXPECT_DEATH(graph.execute(pool), "names resource 1 but the pool has 1");
    ExecRecord record;
    EXPECT_DEATH(graph.execute(pool, nullptr, &record),
                 "names resource 1 but the pool has 1");
}

} // namespace
} // namespace lergan
