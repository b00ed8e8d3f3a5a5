/**
 * @file
 * Tests for the utilization reporting over finished runs: the empty
 * pool, the deterministic busy/name tie-break, the
 * per-category metric rollup, and Resource wait-time accounting.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <utility>

#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
#include "task_helpers.hh"
#include "telemetry/metrics.hh"

namespace lergan {
namespace {

/** Occupy each (resource, duration) pair's resource for that long from
 *  time zero: one independent task per pair, run through the executor. */
void
occupy(ResourcePool &pool,
       std::initializer_list<std::pair<std::size_t, PicoSeconds>> slots)
{
    TaskGraph graph;
    for (const auto &[rid, duration] : slots)
        addNamedTask(graph, "t", {rid}, duration);
    graph.execute(pool);
}

/** Pool with known busy times: two wires, one tile, one idle switch. */
ResourcePool
examplePool()
{
    ResourcePool pool;
    const std::size_t wire_a =
        pool.create("link.h.wire.0", ResourceCategory::Wire);
    const std::size_t wire_b =
        pool.create("link.v.wire.1", ResourceCategory::Wire);
    const std::size_t tile =
        pool.create("bank0.tile3.compute", ResourceCategory::Compute);
    pool.create("switch.2", ResourceCategory::Switch); // never reserved
    occupy(pool, {{wire_a, 100}, {wire_b, 300}, {tile, 400}});
    return pool;
}

TEST(Utilization, EmptyPool)
{
    const ResourcePool pool;
    EXPECT_TRUE(topBusyResources(pool, 1000, 10).empty());
    std::ostringstream oss;
    printUtilization(oss, pool, 1000, 10);
    EXPECT_TRUE(oss.str().empty());
}

TEST(Utilization, TopBusySortsByBusyThenName)
{
    ResourcePool pool;
    const std::size_t b = pool.create("beta", ResourceCategory::Other);
    const std::size_t a = pool.create("alpha", ResourceCategory::Other);
    const std::size_t c = pool.create("gamma", ResourceCategory::Other);
    occupy(pool, {{a, 100}, {b, 100}, {c, 500}}); // alpha ties with beta

    const auto top = topBusyResources(pool, 1000, 10);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].name, "gamma"); // busiest first
    EXPECT_EQ(top[1].name, "alpha"); // tie broken by name
    EXPECT_EQ(top[2].name, "beta");
    EXPECT_DOUBLE_EQ(top[0].utilization, 0.5);
    EXPECT_EQ(top[0].reservations, 1u);

    // top_k truncates after sorting.
    EXPECT_EQ(topBusyResources(pool, 1000, 1).size(), 1u);
    EXPECT_EQ(topBusyResources(pool, 1000, 1)[0].name, "gamma");
}

TEST(Utilization, RecordPoolMetricsAggregatesByCategory)
{
    const ResourcePool pool = examplePool();
    MetricsRegistry registry;
    recordPoolMetrics(pool, registry);
    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.at("sim.resource.busy_ps.wire"), 400u);
    EXPECT_EQ(snapshot.counters.at("sim.resource.busy_ps.compute"),
              400u);
    EXPECT_EQ(snapshot.counters.at("sim.resource.reservations.wire"),
              2u);
    // The never-reserved switch contributes no instruments at all.
    EXPECT_EQ(snapshot.counters.count("sim.resource.busy_ps.switch"),
              0u);
}

TEST(Resource, WaitTimeMeasuresQueueing)
{
    // Three tasks on one resource, released at 10, 50 and 500 by
    // resource-free delay tasks.
    ResourcePool pool;
    const std::size_t res =
        pool.create("bank0.tile0.compute", ResourceCategory::Compute);
    TaskGraph graph;
    const auto readyAt = [&](PicoSeconds ready, PicoSeconds duration) {
        const TaskId delay = addNamedTask(graph, "delay", {}, ready);
        const TaskId task = addNamedTask(graph, "task", {res}, duration);
        graph.addDep(task, delay);
        return task;
    };
    const TaskId first = readyAt(10, 100);
    const TaskId queued = readyAt(50, 10);
    const TaskId idle = readyAt(500, 10);
    ExecRecord record;
    graph.execute(pool, nullptr, &record);
    // First reservation starts on time.
    EXPECT_EQ(record.start[first], 10u);
    // Ready at 50 but the resource is busy until 110: waits 60.
    EXPECT_EQ(record.start[queued], 110u);
    // Ready after the resource frees: no extra wait.
    EXPECT_EQ(record.start[idle], 500u);
    EXPECT_EQ(pool.waitTime(res), 60u);
    EXPECT_EQ(pool.busyTime(res), 120u);
    EXPECT_EQ(pool.reservations(res), 3u);

    pool.resetAll();
    EXPECT_EQ(pool.waitTime(res), 0u);
    EXPECT_EQ(pool.busyTime(res), 0u);
    EXPECT_EQ(pool.reservations(res), 0u);
}

} // namespace
} // namespace lergan
