/**
 * @file
 * Unit tests for the discrete-event kernel, resources and task graphs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/accelerator.hh"
#include "sim/calendar_queue.hh"
#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
#include "task_helpers.hh"
#include "workloads/zoo.hh"

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
    const std::size_t r = 0;
    TaskGraph graph;
    const TaskId first = addNamedTask(graph, "first", {r}, 10);
    const TaskId second = addNamedTask(graph, "second", {r}, 10);
    const TaskId delay = addNamedTask(graph, "delay", {}, 50);
    const TaskId late = addNamedTask(graph, "late", {r}, 10);
    graph.addDep(late, delay);
    ExecScratch scratch;
    ExecRecord record;
    graph.execute(&scratch, &record);
    EXPECT_EQ(record.start[first], 0u);
    EXPECT_EQ(record.start[second], 10u); // queued behind the first
    EXPECT_EQ(record.start[late], 50u);   // idle gap honored
    EXPECT_EQ(graph.resourceBusy()[r], 30u);
    EXPECT_EQ(graph.resourceReservations()[r], 3u);
    EXPECT_EQ(scratch.resourceNextFree()[r], 60u);
}

TEST(Resource, ResetForgetsHistory)
{
    // Each run starts from idle resources: a second run on the same
    // scratch does not queue behind the first's reservation.
    TaskGraph graph;
    const TaskId t = addNamedTask(graph, "t", {0}, 100);
    ExecScratch scratch;
    for (int run = 0; run < 2; ++run) {
        ExecRecord record;
        EXPECT_EQ(graph.execute(&scratch, &record), 100u);
        EXPECT_EQ(record.start[t], 0u);
        EXPECT_EQ(scratch.resourceNextFree()[0], 100u);
        EXPECT_EQ(scratch.resourceWait()[0], 0u);
    }
    EXPECT_EQ(graph.resourceBusy()[0], 100u);
}

TEST(TaskGraph, QueuedTaskChargesItsWaitToEveryResourceItHolds)
{
    // Both tasks fire at 0; the second queues behind the first on the
    // shared unit until 30. Its wait (start 30 - fire 0) is charged to
    // each of its reservations, the idle side resource's included.
    const std::size_t shared = 0, side = 1;
    TaskGraph graph;
    addNamedTask(graph, "first", {shared}, 30);
    const TaskId second = addNamedTask(graph, "second", {shared, side}, 5);
    ExecScratch scratch;
    ExecRecord record;
    EXPECT_EQ(graph.execute(&scratch, &record), 35u);
    EXPECT_EQ(record.start[second], 30u);
    EXPECT_EQ(scratch.resourceWait()[shared], 30u);
    EXPECT_EQ(scratch.resourceWait()[side], 30u);
    EXPECT_EQ(graph.resourceBusy()[shared], 35u);
    EXPECT_EQ(graph.resourceReservations()[side], 1u);
}

TEST(TaskGraph, ChainRespectsDependencies)
{
    const std::size_t r = 0;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r}, 10);
    const TaskId b = addNamedTask(graph, "b", {r}, 20);
    graph.addDep(b, a);
    ExecRecord record;
    const PicoSeconds makespan = graph.execute(nullptr, &record);
    EXPECT_EQ(makespan, 30u);
    EXPECT_EQ(record.end[a], 10u);
    EXPECT_EQ(record.end[b], 30u);
}

TEST(TaskGraph, IndependentTasksContendOnSharedResource)
{
    TaskGraph graph;
    for (int i = 0; i < 4; ++i)
        addNamedTask(graph, "t", {0}, 10);
    const PicoSeconds makespan = graph.execute();
    EXPECT_EQ(makespan, 40u); // serialized on one resource
}

TEST(TaskGraph, IndependentTasksOnDistinctResourcesOverlap)
{
    TaskGraph graph;
    for (std::size_t r = 0; r < 4; ++r)
        addNamedTask(graph, "t", {r}, 10);
    EXPECT_EQ(graph.execute(), 10u);
}

TEST(TaskGraph, PipelineOverlapsStages)
{
    // Two-stage pipeline, 3 items: makespan = (3 + 2 - 1) * 10.
    const std::size_t s1 = 0, s2 = 1;
    TaskGraph graph;
    for (int item = 0; item < 3; ++item) {
        const TaskId a = addNamedTask(graph, "s1", {s1}, 10);
        const TaskId b = addNamedTask(graph, "s2", {s2}, 10);
        graph.addDep(b, a);
    }
    EXPECT_EQ(graph.execute(), 40u);
}

TEST(TaskGraph, MultiResourceTaskHoldsAll)
{
    const std::size_t r1 = 0, r2 = 1;
    TaskGraph graph;
    addNamedTask(graph, "uses r1", {r1}, 10);
    addNamedTask(graph, "uses both", {r1, r2}, 10);
    addNamedTask(graph, "uses r2", {r2}, 10);
    const PicoSeconds makespan = graph.execute();
    // The both-task starts after r1 frees; the r2-task waits for it.
    EXPECT_EQ(makespan, 30u);
}

TEST(TaskGraph, ZeroDurationBarrier)
{
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {0}, 15);
    const TaskId barrier = addNamedTask(graph, "barrier", {}, 0);
    const TaskId b = addNamedTask(graph, "b", {0}, 5);
    graph.addDep(barrier, a);
    graph.addDep(b, barrier);
    ExecRecord record;
    const PicoSeconds makespan = graph.execute(nullptr, &record);
    EXPECT_EQ(record.end[barrier], 15u);
    EXPECT_EQ(makespan, 20u);
}

TEST(TaskGraph, ReexecutableOnOneScratch)
{
    TaskGraph graph;
    addNamedTask(graph, "a", {0}, 10);
    ExecScratch scratch;
    EXPECT_EQ(graph.execute(&scratch), 10u);
    EXPECT_EQ(graph.execute(&scratch), 10u);
}

TEST(TaskGraph, ScratchReuseMatchesFreshExecution)
{
    const std::size_t r0 = 0, r1 = 1;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r0}, 10);
    const TaskId b = addNamedTask(graph, "b", {r1}, 20);
    const TaskId c = addNamedTask(graph, "c", {r0, r1}, 5);
    graph.addDep(c, a);
    graph.addDep(c, b);

    ExecRecord fresh;
    const PicoSeconds makespan = graph.execute(nullptr, &fresh);
    ExecScratch scratch;
    for (int round = 0; round < 3; ++round) {
        ExecRecord reused;
        EXPECT_EQ(graph.execute(&scratch, &reused), makespan);
        EXPECT_EQ(reused.end, fresh.end);
        EXPECT_EQ(reused.popOrder, fresh.popOrder);
    }
}

/** Everything a run leaves that a later run on the same scratch could
 *  see: the makespan, the record, the per-resource columns and the
 *  sim.resource.* totals. */
struct RunColumns {
    PicoSeconds makespan = 0;
    ExecRecord record;
    std::vector<PicoSeconds> wait, nextFree;
    std::map<std::string, std::uint64_t> resourceCounters;
};

RunColumns
runColumns(const TaskGraph &graph, ExecScratch &scratch, bool recorded)
{
    RunColumns run;
    run.makespan =
        graph.execute(&scratch, recorded ? &run.record : nullptr);
    run.wait.assign(scratch.resourceWait().begin(),
                    scratch.resourceWait().end());
    run.nextFree.assign(scratch.resourceNextFree().begin(),
                        scratch.resourceNextFree().end());
    MetricsRegistry metrics;
    recordPoolMetrics(graph, scratch, metrics);
    for (const auto &[name, value] : metrics.snapshot().counters) {
        if (name.rfind("sim.resource.", 0) == 0)
            run.resourceCounters[name] = value;
    }
    return run;
}

void
expectSameRun(const RunColumns &got, const RunColumns &want)
{
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.record.start, want.record.start);
    EXPECT_EQ(got.record.end, want.record.end);
    EXPECT_EQ(got.record.bindingPred, want.record.bindingPred);
    EXPECT_EQ(got.record.bindingKind, want.record.bindingKind);
    EXPECT_EQ(got.record.bindingRes, want.record.bindingRes);
    EXPECT_EQ(got.record.resPrev, want.record.resPrev);
    EXPECT_EQ(got.record.popOrder, want.record.popOrder);
    EXPECT_EQ(got.record.lastTask, want.record.lastTask);
    EXPECT_EQ(got.record.makespan, want.record.makespan);
    EXPECT_EQ(got.wait, want.wait);
    EXPECT_EQ(got.nextFree, want.nextFree);
    EXPECT_EQ(got.resourceCounters, want.resourceCounters);
}

TEST(ExecScratch, RunColumnsMatchAFreshScratchAcrossGraphs)
{
    // A sweep lane runs graphs of different resource counts on one
    // scratch: a 3D template (716 resources), a PRIME one (468), the 3D
    // one again, then a graph whose ids run past the 3D machine's. Each
    // run, recorded or not, must equal a fresh scratch's run of the
    // same graph: the run columns shrink and grow with the graph and
    // nothing carries over.
    const GanModel model = makeBenchmark("DCGAN");
    const auto threeD =
        LerGanAccelerator(model, AcceleratorConfig::lerGan(ReplicaDegree::Low))
            .makeIterationTemplate();
    const auto prime = LerGanAccelerator(model, AcceleratorConfig::prime())
                           .makeIterationTemplate();
    // The machine's resources plus the accelerator's host CPU.
    ASSERT_EQ(threeD->resourceNames->size(), 716u + 1);
    ASSERT_EQ(prime->resourceNames->size(), 468u + 1);

    TaskGraph wide;
    for (std::size_t i = 0; i < 60; ++i) {
        const TaskId id = addNamedTask(
            wide, "t", {790 + i % 7, 799 - i % 3}, 5 + i % 11);
        if (i >= 5 && i % 4 == 0)
            wide.addDep(id, id - 5);
    }
    ASSERT_GT(wide.resourceBound(), threeD->graph.resourceBound());

    ExecScratch lane;
    for (const bool recorded : {true, false}) {
        for (const TaskGraph *graph : std::vector<const TaskGraph *>{
                 &threeD->graph, &prime->graph, &threeD->graph, &wide}) {
            SCOPED_TRACE(std::to_string(graph->resourceBound()) +
                         " resources, recorded " +
                         std::to_string(recorded));
            ExecScratch fresh;
            const RunColumns want = runColumns(*graph, fresh, recorded);
            ASSERT_EQ(want.wait.size(), graph->resourceBound());
            expectSameRun(runColumns(*graph, lane, recorded), want);
        }
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
    ExecRecord original;
    graph.execute(nullptr, &original);

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
    ExecRecord copy;
    rebuilt.execute(nullptr, &copy);

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
    TaskGraph built;
    addNamedTask(built, "a", {0}, 7);
    TaskGraph moved = std::move(built);
    EXPECT_EQ(moved.execute(), 7u);

    TaskGraph again = std::move(moved);
    EXPECT_EQ(again.execute(), 7u);
}

TEST(TaskGraphDeath, CycleIsDetected)
{
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {}, 1);
    const TaskId b = addNamedTask(graph, "b", {}, 1);
    graph.addDep(a, b);
    graph.addDep(b, a);
    EXPECT_DEATH(graph.execute(), "cycle");
}

} // namespace
} // namespace lergan
