/**
 * @file
 * Tests for the utilization reporting over finished runs: fragment
 * matching, the empty pool, the deterministic busy/name tie-break, the
 * per-category metric rollup, and Resource wait-time accounting.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <utility>

#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
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
        graph.addTask({"t", {rid}, duration});
    graph.execute(pool);
}

/** Pool with known busy times: two wires, one tile, one idle switch. */
ResourcePool
examplePool()
{
    ResourcePool pool;
    const std::size_t wire_a = pool.create("link.h.wire.0");
    const std::size_t wire_b = pool.create("link.v.wire.1");
    const std::size_t tile = pool.create("bank0.tile3.compute");
    pool.create("switch.2"); // never reserved
    occupy(pool, {{wire_a, 100}, {wire_b, 300}, {tile, 400}});
    return pool;
}

TEST(Utilization, FragmentMatchingAveragesMatches)
{
    const ResourcePool pool = examplePool();
    const PicoSeconds makespan = 1000;
    // Two wires at 0.1 and 0.3 utilization average to 0.2.
    EXPECT_DOUBLE_EQ(utilizationOf(pool, makespan, "wire"), 0.2);
    EXPECT_DOUBLE_EQ(utilizationOf(pool, makespan, ".compute"), 0.4);
    // The idle switch still matches (it averages in as zero).
    EXPECT_DOUBLE_EQ(utilizationOf(pool, makespan, "switch"), 0.0);
    // No match at all is 0, not a division by zero.
    EXPECT_DOUBLE_EQ(utilizationOf(pool, makespan, "nonesuch"), 0.0);
    // Zero makespan is 0, not a division by zero.
    EXPECT_DOUBLE_EQ(utilizationOf(pool, 0, "wire"), 0.0);
}

TEST(Utilization, EmptyPool)
{
    const ResourcePool pool;
    EXPECT_DOUBLE_EQ(utilizationOf(pool, 1000, "wire"), 0.0);
    EXPECT_TRUE(topBusyResources(pool, 1000, 10).empty());
    std::ostringstream oss;
    printUtilization(oss, pool, 1000, 10);
    EXPECT_TRUE(oss.str().empty());
}

TEST(Utilization, TopBusySortsByBusyThenName)
{
    ResourcePool pool;
    const std::size_t b = pool.create("beta");
    const std::size_t a = pool.create("alpha");
    const std::size_t c = pool.create("gamma");
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
    const std::size_t res = pool.create("bank0.tile0.compute");
    TaskGraph graph;
    const auto readyAt = [&](PicoSeconds ready, PicoSeconds duration) {
        const TaskId delay = graph.addTask({"delay", {}, ready});
        const TaskId task = graph.addTask({"task", {res}, duration});
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
