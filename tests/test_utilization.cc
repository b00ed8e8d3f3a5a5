/**
 * @file
 * Tests for the utilization reporting over finished runs: the empty
 * graph, the deterministic busy/name tie-break, the
 * per-category metric rollup, and Resource wait-time accounting.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
#include "task_helpers.hh"
#include "telemetry/metrics.hh"

namespace lergan {
namespace {

/** One executed run of a graph over @p pool's resources. */
struct Occupied {
    TaskGraph graph;
    ExecScratch scratch;
    std::vector<std::string> names;
};

/** Occupy each (resource, duration) pair's resource for that long from
 *  time zero: one independent task per pair, run through the executor. */
std::unique_ptr<Occupied>
occupy(const ResourcePool &pool,
       std::initializer_list<std::pair<std::size_t, PicoSeconds>> slots)
{
    auto run = std::make_unique<Occupied>();
    for (const auto &[rid, duration] : slots)
        addNamedTask(run->graph, "t", {rid}, duration);
    run->graph.setResourceCategories(pool.categories());
    run->names = pool.names();
    run->graph.execute(&run->scratch);
    return run;
}

/** A run with known busy times: two wires, one tile, one idle switch. */
std::unique_ptr<Occupied>
exampleRun()
{
    ResourcePool pool;
    const std::size_t wire_a =
        pool.create("link.h.wire.0", ResourceCategory::Wire);
    const std::size_t wire_b =
        pool.create("link.v.wire.1", ResourceCategory::Wire);
    const std::size_t tile =
        pool.create("bank0.tile3.compute", ResourceCategory::Compute);
    pool.create("switch.2", ResourceCategory::Switch); // never reserved
    return occupy(pool, {{wire_a, 100}, {wire_b, 300}, {tile, 400}});
}

TEST(Utilization, EmptyPool)
{
    const TaskGraph graph;
    EXPECT_TRUE(topBusyResources(graph, {}, 1000, 10).empty());
    std::ostringstream oss;
    printUtilization(oss, graph, {}, 1000, 10);
    EXPECT_TRUE(oss.str().empty());
}

TEST(Utilization, TopBusySortsByBusyThenName)
{
    ResourcePool pool;
    const std::size_t b = pool.create("beta", ResourceCategory::Other);
    const std::size_t a = pool.create("alpha", ResourceCategory::Other);
    const std::size_t c = pool.create("gamma", ResourceCategory::Other);
    pool.create("delta", ResourceCategory::Other); // past the graph's ids
    // alpha ties with beta
    const auto run = occupy(pool, {{a, 100}, {b, 100}, {c, 500}});

    const auto top = topBusyResources(run->graph, run->names, 1000, 10);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].name, "gamma"); // busiest first
    EXPECT_EQ(top[1].name, "alpha"); // tie broken by name
    EXPECT_EQ(top[2].name, "beta");
    EXPECT_EQ(top[3].name, "delta"); // idle, but still listed
    EXPECT_EQ(top[3].busy, 0u);
    EXPECT_DOUBLE_EQ(top[0].utilization, 0.5);
    EXPECT_EQ(top[0].reservations, 1u);

    // top_k truncates after sorting.
    EXPECT_EQ(topBusyResources(run->graph, run->names, 1000, 1).size(), 1u);
    EXPECT_EQ(topBusyResources(run->graph, run->names, 1000, 1)[0].name,
              "gamma");
}

TEST(Utilization, RecordPoolMetricsAggregatesByCategory)
{
    const auto run = exampleRun();
    MetricsRegistry registry;
    recordPoolMetrics(run->graph, run->scratch, registry);
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
    const std::size_t res = 0;
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
    ExecScratch scratch;
    ExecRecord record;
    graph.execute(&scratch, &record);
    // First reservation starts on time.
    EXPECT_EQ(record.start[first], 10u);
    // Ready at 50 but the resource is busy until 110: waits 60.
    EXPECT_EQ(record.start[queued], 110u);
    // Ready after the resource frees: no extra wait.
    EXPECT_EQ(record.start[idle], 500u);
    EXPECT_EQ(scratch.resourceWait()[res], 60u);
    EXPECT_EQ(graph.resourceBusy()[res], 120u);
    EXPECT_EQ(graph.resourceReservations()[res], 3u);

    // The wait is one run's, not a running total.
    graph.execute(&scratch);
    EXPECT_EQ(scratch.resourceWait()[res], 60u);
}

} // namespace
} // namespace lergan
