/**
 * @file
 * Property-based tests: randomized task graphs against scheduling
 * invariants, the calendar queue against a sorted-multimap oracle,
 * and routing invariants across the whole machine.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/random.hh"
#include "core/machine.hh"
#include "core/sweep_io.hh"
#include "faults/montecarlo.hh"
#include "sim/calendar_queue.hh"
#include "sim/observe.hh"
#include "sim/task_graph.hh"
#include "task_helpers.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

/** A randomly generated layered DAG with random resource assignments. */
struct RandomDag {
    TaskGraph graph;
    std::size_t resources = 0;
    std::vector<std::vector<TaskId>> layers;
    std::vector<PicoSeconds> durations;
    std::vector<std::vector<TaskId>> deps; // deps[task] = prerequisite ids
};

RandomDag
makeRandomDag(std::uint64_t seed)
{
    RandomDag dag;
    Rng rng(seed);
    const int num_resources = 2 + static_cast<int>(rng.nextBounded(6));
    dag.resources = static_cast<std::size_t>(num_resources);

    const int num_layers = 2 + static_cast<int>(rng.nextBounded(5));
    for (int layer = 0; layer < num_layers; ++layer) {
        std::vector<TaskId> row;
        const int width = 1 + static_cast<int>(rng.nextBounded(6));
        for (int i = 0; i < width; ++i) {
            const PicoSeconds duration = 1 + rng.nextBounded(50);
            std::vector<std::size_t> resources;
            if (rng.nextBounded(4) != 0)
                resources.push_back(rng.nextBounded(num_resources));
            // Every third task with a resource also holds the next one,
            // so multi-slot reservations get exercised.
            if (!resources.empty() && dag.durations.size() % 3 == 0)
                resources.push_back((resources[0] + 1) % num_resources);
            const TaskId id =
                addNamedTask(dag.graph, "t", resources, duration);
            dag.durations.push_back(duration);
            dag.deps.emplace_back();
            if (layer > 0) {
                // Each task depends on 1..3 tasks of the previous layer.
                const auto &prev = dag.layers[layer - 1];
                const int fanin =
                    1 + static_cast<int>(rng.nextBounded(3));
                for (int d = 0; d < fanin; ++d) {
                    const TaskId dep =
                        prev[rng.nextBounded(prev.size())];
                    dag.graph.addDep(id, dep);
                    dag.deps[id].push_back(dep);
                }
            }
            row.push_back(id);
        }
        dag.layers.push_back(std::move(row));
    }
    return dag;
}

/** Longest dependency-chain duration (ignores resources): lower bound. */
PicoSeconds
criticalPath(const RandomDag &dag)
{
    std::vector<PicoSeconds> finish(dag.durations.size(), 0);
    for (TaskId id = 0; id < dag.durations.size(); ++id) {
        PicoSeconds ready = 0;
        for (TaskId dep : dag.deps[id])
            ready = std::max(ready, finish[dep]);
        finish[id] = ready + dag.durations[id];
    }
    PicoSeconds best = 0;
    for (PicoSeconds f : finish)
        best = std::max(best, f);
    return best;
}

class RandomDagProperty : public testing::TestWithParam<int>
{
};

TEST_P(RandomDagProperty, SchedulingInvariants)
{
    RandomDag dag = makeRandomDag(GetParam() * 7919 + 13);
    ExecRecord record;
    const PicoSeconds makespan = dag.graph.execute(nullptr, &record);

    // Bounds: critical path <= makespan <= serial sum.
    PicoSeconds serial = 0;
    for (PicoSeconds d : dag.durations)
        serial += d;
    EXPECT_GE(makespan, criticalPath(dag));
    EXPECT_LE(makespan, serial);

    // Dependencies respected: a task ends at least its duration after
    // every prerequisite's end.
    for (TaskId id = 0; id < dag.durations.size(); ++id)
        for (TaskId dep : dag.deps[id])
            EXPECT_GE(record.end[id], record.end[dep] + dag.durations[id]);

    // No resource is busy longer than the run.
    for (const PicoSeconds busy : dag.graph.resourceBusy())
        EXPECT_LE(busy, makespan);
}

TEST_P(RandomDagProperty, OccupancyCountersAreConsistent)
{
    RandomDag dag = makeRandomDag(GetParam() * 7919 + 13);
    ExecRecord record;
    dag.graph.execute(nullptr, &record);
    Tracer tracer;
    MetricsRegistry metrics;
    ExecScratch scratch;
    deriveObservers(dag.graph, record, &tracer, &metrics, scratch);

    // Oracle from the prerequisite lists, independent of the successor
    // CSR the derivation walks: each task's fire and completion
    // positions in the pop order, and its release position (the
    // completion of its last prerequisite; -1 for a source).
    const std::size_t n = dag.durations.size();
    ASSERT_EQ(record.popOrder.size(), 2 * n);
    std::vector<long> firePos(n), donePos(n), releasePos(n, -1);
    for (std::size_t k = 0; k < record.popOrder.size(); ++k) {
        const std::uint32_t entry = record.popOrder[k];
        (ExecRecord::popIsCompletion(entry)
             ? donePos
             : firePos)[ExecRecord::popTask(entry)] = static_cast<long>(k);
    }
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : dag.deps[id])
            releasePos[id] = std::max(releasePos[id], donePos[dep]);

    // One (depth, ready, in-flight) triple per popped event, at the
    // pop's instant. Every queued event is a pending fire (a ready
    // task) or a pending completion (an in-flight one), so the depth
    // is their sum.
    const auto &samples = tracer.counterSamples();
    ASSERT_EQ(samples.size(), 6 * n);
    for (std::size_t k = 0; k < 2 * n; ++k) {
        const long pos = static_cast<long>(k);
        double ready = 0, inflight = 0;
        for (TaskId id = 0; id < n; ++id) {
            ready += releasePos[id] <= pos && firePos[id] > pos;
            inflight += firePos[id] <= pos && donePos[id] > pos;
        }
        const TaskId task = ExecRecord::popTask(record.popOrder[k]);
        PicoSeconds time = record.end[task];
        if (!ExecRecord::popIsCompletion(record.popOrder[k])) {
            time = 0;
            for (TaskId dep : dag.deps[task])
                time = std::max(time, record.end[dep]);
        }
        const CounterSample *triple = &samples[3 * k];
        EXPECT_EQ(tracer.trackName(triple[0].track), "sim.queue.depth");
        EXPECT_EQ(tracer.trackName(triple[1].track), "sim.ready.tasks");
        EXPECT_EQ(tracer.trackName(triple[2].track), "sim.inflight.tasks");
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(triple[i].time, time) << "pop " << k;
        EXPECT_EQ(triple[1].value, ready) << "pop " << k;
        EXPECT_EQ(triple[2].value, inflight) << "pop " << k;
        EXPECT_EQ(triple[0].value, triple[1].value + triple[2].value)
            << "pop " << k;
    }
    for (const char *name :
         {"sim.queue.depth", "sim.ready.tasks", "sim.inflight.tasks"})
        EXPECT_EQ(metrics.histogram(name).count(), 2 * n) << name;
}

/** Per-resource run columns, as an oracle recomputes them. */
struct PoolTotals {
    explicit PoolTotals(std::size_t resources)
        : busy(resources), wait(resources), nextFree(resources),
          reservations(resources)
    {
    }
    std::vector<PicoSeconds> busy, wait, nextFree;
    std::vector<std::uint64_t> reservations;
};

/**
 * Add one run's per-resource columns, recomputed from its record's
 * start/end columns, the prerequisite lists and the resource CSR: each
 * reservation slot adds its task's occupancy to busy, one reservation,
 * and start - fire time (the latest prerequisite end) to wait; a
 * resource is next free when its latest holder ends.
 */
void
addRunTotals(const RandomDag &dag, const ExecRecord &record,
             PoolTotals &totals)
{
    for (TaskId id = 0; id < dag.durations.size(); ++id) {
        PicoSeconds fire = 0;
        for (TaskId dep : dag.deps[id])
            fire = std::max(fire, record.end[dep]);
        for (const std::uint32_t rid : dag.graph.resources(id)) {
            totals.busy[rid] += record.end[id] - record.start[id];
            totals.wait[rid] += record.start[id] - fire;
            ++totals.reservations[rid];
            totals.nextFree[rid] =
                std::max(totals.nextFree[rid], record.end[id]);
        }
    }
}

/** The graph's frozen busy/reservation columns and @p scratch's run
 *  columns equal @p totals on every resource the graph holds. */
void
expectRunEquals(const TaskGraph &graph, const ExecScratch &scratch,
                const PoolTotals &totals)
{
    const std::size_t bound = graph.resourceBound();
    ASSERT_EQ(scratch.resourceWait().size(), bound);
    for (std::size_t r = 0; r < bound; ++r) {
        EXPECT_EQ(graph.resourceBusy()[r], totals.busy[r])
            << "resource " << r;
        EXPECT_EQ(scratch.resourceWait()[r], totals.wait[r])
            << "resource " << r;
        EXPECT_EQ(scratch.resourceNextFree()[r], totals.nextFree[r])
            << "resource " << r;
        EXPECT_EQ(graph.resourceReservations()[r], totals.reservations[r])
            << "resource " << r;
    }
}

TEST_P(RandomDagProperty, PoolTotalsMatchTheRecord)
{
    RandomDag dag = makeRandomDag(GetParam() * 7919 + 13);
    PoolTotals expect(dag.resources);
    ExecRecord record;
    ExecScratch recorded, unrecorded;
    // Two runs back to back on the same scratches: each run starts from
    // idle resources, so both leave one run's totals. The unrecorded
    // path must leave its scratch exactly as the recorded one does.
    for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        dag.graph.execute(&recorded, &record);
        dag.graph.execute(&unrecorded);
        if (run == 0)
            addRunTotals(dag, record, expect);
        expectRunEquals(dag.graph, recorded, expect);
        expectRunEquals(dag.graph, unrecorded, expect);
        // Every resource binding names a holder of this run.
        for (TaskId id = 0; id < dag.durations.size(); ++id) {
            if (record.bindingKind[id] == BindingKind::Resource) {
                EXPECT_LT(record.bindingPred[id], dag.durations.size())
                    << "task " << id;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, testing::Range(0, 24));

// ---------------------------------------------------------------------
// Calendar queue vs a sorted-multimap oracle: identical firing order
// under over a million randomized schedule / fire operations.
// ---------------------------------------------------------------------

/**
 * Shared randomized scenario. Event ids are the schedule sequence in
 * both queues, and every follow-up action (how many new events a firing
 * schedules, and at what offsets) is a pure function of (seed, fired
 * id) — so two queues that fire events in the same order perform
 * exactly the same operations, and any ordering divergence snowballs
 * into a visible difference in the recorded sequences.
 */
struct QueueScenario {
    std::uint64_t seed = 0;
    std::size_t cap = 0;        ///< max events scheduled in total
    /** Draw follow-up offsets from {0, 1} with occasional long jumps
     *  instead of uniform [0, 1000): keeps the calendar's windows
     *  narrow so reschedules land on or just past the near/far edge
     *  constantly — the regime the executor's completion loop creates
     *  with clustered task end times. */
    bool boundaryHeavy = false;
    std::size_t scheduled = 0;  ///< ids issued so far
    std::vector<std::uint64_t> order; ///< fired ids, in firing order

    /**
     * Follow-up actions of event @p tag firing at time @p now.
     * @p schedule takes an absolute time and must assign id
     * `scheduled` (then this helper advances the counter).
     */
    template <typename Schedule>
    void
    onFire(std::uint64_t tag, PicoSeconds now, const Schedule &schedule)
    {
        order.push_back(tag);
        Rng rng(seed ^ (tag * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL));
        const std::uint64_t follow = rng.nextBounded(3);
        for (std::uint64_t i = 0; i < follow && scheduled < cap; ++i) {
            const PicoSeconds offset =
                boundaryHeavy
                    ? (rng.nextBounded(8) == 0
                           ? 500 + rng.nextBounded(500)
                           : rng.nextBounded(2))
                    : rng.nextBounded(1000);
            schedule(now + offset);
            ++scheduled;
        }
    }
};

/**
 * Run the scenario on @p Queue, anything with the calendar queue's
 * scheduleAt / pop / now / pending surface.
 */
template <typename Queue>
std::vector<std::uint64_t>
runScenario(std::uint64_t seed, std::size_t initial, std::size_t cap,
            PicoSeconds horizon, bool boundary)
{
    Queue queue;
    QueueScenario s{seed, cap, boundary, 0, {}};
    Rng rng(seed);
    for (std::size_t i = 0; i < initial; ++i) {
        queue.scheduleAt(rng.nextBounded(horizon), s.scheduled);
        ++s.scheduled;
    }
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        s.onFire(tag, queue.now(), [&](PicoSeconds when) {
            queue.scheduleAt(when, s.scheduled);
        });
    }
    EXPECT_EQ(queue.pending(), 0u);
    return std::move(s.order);
}

/**
 * The trivially correct reference: a std::multimap keyed on (when,
 * schedule sequence), popped from the front.
 */
class MultimapQueue
{
  public:
    PicoSeconds now() const { return now_; }
    std::size_t pending() const { return events_.size(); }

    void
    scheduleAt(PicoSeconds when, std::uint64_t payload)
    {
        events_.emplace(std::make_pair(when, seq_++), payload);
    }

    bool
    pop(std::uint64_t &out)
    {
        if (events_.empty())
            return false;
        const auto first = events_.begin();
        now_ = first->first.first;
        out = first->second;
        events_.erase(first);
        return true;
    }

  private:
    std::multimap<std::pair<PicoSeconds, std::uint64_t>, std::uint64_t>
        events_;
    std::uint64_t seq_ = 0;
    PicoSeconds now_ = 0;
};

/** Assert the calendar queue fires the scenario exactly like the
 *  oracle, reporting the first divergence (EXPECT_EQ on the vectors
 *  would print megabytes on failure). */
void
expectMatchesOracle(std::uint64_t seed, std::size_t initial,
                    std::size_t cap, PicoSeconds horizon, bool boundary)
{
    const auto calendar = runScenario<sim::CalendarQueue<std::uint64_t>>(
        seed, initial, cap, horizon, boundary);
    const auto oracle =
        runScenario<MultimapQueue>(seed, initial, cap, horizon, boundary);
    ASSERT_EQ(calendar.size(), cap) << "seed " << seed;
    ASSERT_EQ(calendar.size(), oracle.size()) << "seed " << seed;
    for (std::size_t i = 0; i < calendar.size(); ++i)
        ASSERT_EQ(calendar[i], oracle[i])
            << "first divergence at firing #" << i << ", seed " << seed;
}

TEST(CalendarQueueProperty, MatchesMultimapOracleOverAMillionOps)
{
    // Two seeds x (300k schedules + 300k fires) each: over a million
    // queue operations in total, with heavy same-time collisions (200k
    // initial events over a 1M-tick horizon).
    for (const std::uint64_t seed : {UINT64_C(42), UINT64_C(20180614)})
        expectMatchesOracle(seed, 200'000, 300'000, 1'000'000, false);
}

TEST(CalendarQueueProperty, AdversarialSameTimeBursts)
{
    // All events at one instant fire in schedule order, including a
    // second burst scheduled at that instant mid-drain — the worst case
    // for a bucketing queue.
    sim::CalendarQueue<std::uint64_t> queue;
    for (std::uint64_t i = 0; i < 1000; ++i)
        queue.scheduleAt(7, i);
    std::vector<std::uint64_t> fired;
    std::uint64_t tag = 0;
    while (fired.size() < 300 && queue.pop(tag))
        fired.push_back(tag);
    for (std::uint64_t i = 1000; i < 1500; ++i)
        queue.scheduleAt(7, i);
    EXPECT_EQ(queue.pending(), 1200u);
    while (queue.pop(tag))
        fired.push_back(tag);
    std::vector<std::uint64_t> expect(1500);
    for (std::uint64_t i = 0; i < expect.size(); ++i)
        expect[i] = i;
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.now(), 7u);
}

TEST(CalendarQueueBoundary, PendingCountsBothLevelsAcrossTheWindowEdge)
{
    // 64 events at times 0..63 scheduled up front: the first pop carves
    // a window of width 32 (64 events / kTargetPerWindow), putting
    // times 0..31 into the sorted near run and leaving 32..63 in far.
    // pending() must count both levels: one event added on each side of
    // the edge (31 lands in near, 32 in far) shows up, and the count
    // falls by exactly one per pop until the queue drains.
    sim::CalendarQueue<std::uint64_t> queue;
    for (std::uint64_t i = 0; i < 64; ++i)
        queue.scheduleAt(i, i);

    std::uint64_t tag = 0;
    ASSERT_TRUE(queue.pop(tag)); // forces the window carve
    EXPECT_EQ(tag, 0u);
    EXPECT_EQ(queue.pending(), 63u);
    queue.scheduleAt(31, 64);
    queue.scheduleAt(32, 65);
    EXPECT_EQ(queue.pending(), 65u);

    std::vector<std::uint64_t> fired;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        EXPECT_EQ(queue.pending(), 65u - fired.size());
    }
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 1; i < 64; ++i) {
        expect.push_back(i);
        if (i == 31)
            expect.push_back(64);
        if (i == 32)
            expect.push_back(65);
    }
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.now(), 63u);
    EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueueBoundary, RescheduleIntoTheCurrentWindowDuringFire)
{
    // Executor-style loop: while the event at time 10 is being handled,
    // schedule three follow-ups — one at the current instant (must fire
    // after every other live event at that time, i.e. immediately here),
    // one on the last slot of the current window (31), and one exactly
    // at the window end (32, the far-side path). Equal-time events fire
    // in schedule order, so the follow-ups (ids 64..66) fire after the
    // originals at their times.
    sim::CalendarQueue<std::uint64_t> queue;
    for (std::uint64_t i = 0; i < 64; ++i)
        queue.scheduleAt(i, i);

    std::vector<std::uint64_t> fired;
    std::uint64_t next = 64;
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        if (tag == 10) {
            queue.scheduleAt(queue.now(), next);
            ++next;
            queue.scheduleAt(31, next);
            ++next;
            queue.scheduleAt(32, next);
            ++next;
        }
    }
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i <= 10; ++i)
        expect.push_back(i);
    expect.push_back(64); // same instant as 10, scheduled later
    for (std::uint64_t i = 11; i <= 31; ++i)
        expect.push_back(i);
    expect.push_back(65); // time 31, after the original
    expect.push_back(32);
    expect.push_back(66); // time 32, after the original
    for (std::uint64_t i = 33; i < 64; ++i)
        expect.push_back(i);
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(CalendarQueueProperty, BoundaryHeavySeededScenarioMatchesOracle)
{
    // Same oracle harness as above, but with follow-up times drawn from
    // {now, now + 1} plus occasional long jumps over a short horizon:
    // windows stay narrow, so fire-time reschedules land on or just
    // past the near/far edge all the time instead of rarely.
    for (const std::uint64_t seed : {UINT64_C(3), UINT64_C(777)})
        expectMatchesOracle(seed, 30'000, 40'000, 600, true);
}

/**
 * Run the same-instant lane scenario on @p Queue (the calendar queue or
 * the multimap oracle) and return the fired ids in firing order. Three
 * events per instant 0, 10, ..., 990 are scheduled up front, so when
 * time reaches an instant its siblings sit in the near run (or, for
 * later instants, in far). Follow-ups are a pure function of the fired
 * id: a burst of three at now(), a zero-duration chain of 1–4 events
 * each scheduled at now() when its predecessor fires, and reschedules
 * onto the next instant (already holding events) and past the window.
 */
template <typename Queue>
std::vector<std::uint64_t>
runLaneScenario()
{
    Queue queue;
    std::uint64_t next = 0;
    std::map<std::uint64_t, int> chainLeft; // chain id -> links to go
    for (PicoSeconds t = 0; t < 1000; t += 10)
        for (int k = 0; k < 3; ++k)
            queue.scheduleAt(t, next++);
    std::vector<std::uint64_t> fired;
    std::uint64_t tag = 0;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        const PicoSeconds now = queue.now();
        if (next >= 1500)
            continue;
        if (const auto link = chainLeft.find(tag); link != chainLeft.end()) {
            if (link->second > 0) {
                chainLeft[next] = link->second - 1;
                queue.scheduleAt(now, next++);
            }
            chainLeft.erase(link);
            continue;
        }
        if (tag % 5 == 0)
            for (int k = 0; k < 3; ++k)
                queue.scheduleAt(now, next++);
        if (tag % 7 == 1) {
            chainLeft[next] = static_cast<int>(tag % 4);
            queue.scheduleAt(now, next++);
        }
        if (tag % 11 == 2) {
            queue.scheduleAt(now + 10, next++);
            queue.scheduleAt(now + 1000, next++);
        }
    }
    EXPECT_EQ(queue.pending(), 0u);
    return fired;
}

TEST(CalendarQueueProperty, SameInstantLaneMatchesMultimapOracle)
{
    const auto calendar =
        runLaneScenario<sim::CalendarQueue<std::uint64_t>>();
    const auto oracle = runLaneScenario<MultimapQueue>();
    ASSERT_GE(calendar.size(), 1500u);
    ASSERT_EQ(calendar.size(), oracle.size());
    for (std::size_t i = 0; i < calendar.size(); ++i)
        ASSERT_EQ(calendar[i], oracle[i])
            << "first divergence at firing #" << i;
}

TEST(CalendarQueueBoundary, PendingCountsTheSameInstantLane)
{
    // At time zero every schedule lands in the lane: counted, popped,
    // and the queue is empty again.
    sim::CalendarQueue<std::uint64_t> queue;
    EXPECT_TRUE(queue.empty());
    queue.scheduleAt(0, 0);
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_FALSE(queue.empty());
    std::uint64_t tag = 0;
    ASSERT_TRUE(queue.pop(tag));
    EXPECT_TRUE(queue.empty());

    // Five events at 10 go to far; the first pop carves them into near.
    // Three more at now() (10) join the lane behind the four left in
    // near, and pending() falls by one per pop across both.
    for (std::uint64_t i = 1; i <= 5; ++i)
        queue.scheduleAt(10, i);
    ASSERT_TRUE(queue.pop(tag));
    EXPECT_EQ(tag, 1u);
    for (std::uint64_t i = 6; i <= 8; ++i)
        queue.scheduleAt(queue.now(), i);
    EXPECT_EQ(queue.pending(), 7u);
    std::vector<std::uint64_t> fired;
    while (queue.pop(tag)) {
        fired.push_back(tag);
        EXPECT_EQ(queue.pending(), 7u - fired.size());
        EXPECT_EQ(queue.empty(), fired.size() == 7u);
    }
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(queue.now(), 10u);

    // reset() drops lane entries too.
    queue.scheduleAt(queue.now(), 9);
    EXPECT_EQ(queue.pending(), 1u);
    queue.reset();
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.pop(tag));
}

/** Routing invariants over bank pairs of a full machine. */
class RouteProperty
    : public testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    static Machine &
    threeD()
    {
        static Machine machine{
            AcceleratorConfig::lerGan(ReplicaDegree::Low)};
        return machine;
    }
    static Machine &
    hTree()
    {
        static Machine machine{AcceleratorConfig::prime()};
        return machine;
    }
};

TEST_P(RouteProperty, RoutesExistAndAreSane)
{
    auto [bank_a, bank_b] = GetParam();
    const Route &r3d = threeD().routeTiles(bank_a, 2, bank_b, 9, true);
    const Route &r2d = hTree().routeTiles(bank_a, 2, bank_b, 9, true);
    ASSERT_TRUE(r3d.valid());
    ASSERT_TRUE(r2d.valid());
    EXPECT_GT(r3d.minBytesPerNs, 0.0);

    // The 3D connection never routes slower than the H-tree machine.
    EXPECT_LE(r3d.latencyNs, r2d.latencyNs);

    // Latency symmetry (undirected wires).
    const Route &back = threeD().routeTiles(bank_b, 9, bank_a, 2, true);
    EXPECT_DOUBLE_EQ(r3d.latencyNs, back.latencyNs);

    // Smode routes (H-tree + bus only) are never faster than Cmode.
    const Route &smode = threeD().routeTiles(bank_a, 2, bank_b, 9, false);
    ASSERT_TRUE(smode.valid());
    EXPECT_GE(smode.latencyNs, r3d.latencyNs);
}

INSTANTIATE_TEST_SUITE_P(
    BankPairs, RouteProperty,
    testing::Combine(testing::Values(0, 1, 2, 3, 4, 5),
                     testing::Values(0, 1, 2, 3, 4, 5)));

TEST(RouteInvariants, IntraBankNeverCrossesTheBus)
{
    Machine machine{AcceleratorConfig::lerGan(ReplicaDegree::Low)};
    for (int a = 0; a < 16; a += 5) {
        for (int b = 0; b < 16; b += 3) {
            const Route &route = machine.routeTiles(0, a, 0, b, true);
            for (int link : route.links)
                EXPECT_NE(machine.topo().link(link).kind, LinkKind::Bus);
        }
    }
}

TEST(RouteInvariants, StackedBankRouteUsesVerticalWire)
{
    Machine machine{AcceleratorConfig::lerGan(ReplicaDegree::Low)};
    const Route &route = machine.routeTiles(0, 5, 1, 5, true);
    ASSERT_EQ(route.links.size(), 1u);
    EXPECT_EQ(machine.topo().link(route.links[0]).kind,
              LinkKind::Vertical);
}

// ---------------------------------------------------------------------
// Monte Carlo robustness-sweep properties.
// ---------------------------------------------------------------------

/** A small faulty configuration at the given tile-kill rate. */
AcceleratorConfig
faultyConfig(double tile_kill_rate)
{
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    config.faults.tileKillRate = tile_kill_rate;
    return config;
}

TEST(MonteCarloProperty, AggregatesArePermutationInvariantInTrialOrder)
{
    // The distribution summary may not depend on the order trials
    // complete (or are fed) in — it sorts internally.
    Rng rng(123);
    std::vector<double> samples;
    for (int i = 0; i < 40; ++i)
        samples.push_back(rng.nextDouble() * 100.0);
    const TrialDistribution reference = TrialDistribution::of(samples);

    for (int round = 0; round < 10; ++round) {
        // Fisher-Yates with the deterministic repo Rng.
        for (std::size_t i = samples.size(); i > 1; --i)
            std::swap(samples[i - 1], samples[rng.nextBounded(i)]);
        const TrialDistribution shuffled = TrialDistribution::of(samples);
        EXPECT_DOUBLE_EQ(shuffled.mean, reference.mean);
        EXPECT_DOUBLE_EQ(shuffled.p95, reference.p95);
        EXPECT_DOUBLE_EQ(shuffled.min, reference.min);
        EXPECT_DOUBLE_EQ(shuffled.max, reference.max);
    }
}

TEST(MonteCarloProperty, DeterministicAcrossWorkerCounts)
{
    FaultMonteCarlo experiment;
    experiment.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("kill5", faultyConfig(0.05))
        .addConfig("kill20", faultyConfig(0.20));

    MonteCarloOptions options;
    options.trials = 32;
    options.baseSeed = 7;
    options.threads = 1;
    const std::vector<SweepResult> serial = experiment.run(options);
    options.threads = 4;
    const std::vector<SweepResult> parallel = experiment.run(options);

    std::ostringstream serial_json, parallel_json;
    writeSweepJson(serial_json, serial);
    writeSweepJson(parallel_json, parallel);
    EXPECT_EQ(serial_json.str(), parallel_json.str());

    std::string error;
    EXPECT_TRUE(isValidJson(serial_json.str(), &error)) << error;

    ASSERT_EQ(serial.size(), 2u);
    for (const SweepResult &result : serial) {
        EXPECT_TRUE(result.faults.ran());
        EXPECT_EQ(result.faults.trials, 32);
    }
}

TEST(MonteCarloProperty, AggregatesMonotoneNonImprovingInFaultRate)
{
    // With only tile-kill faults active the sampler consumes exactly
    // one uniform draw per tile, so the same trial seed yields nested
    // kill sets as the rate rises: capacity lost and iteration latency
    // can only get worse (or tie), never better.
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    double last_capacity = -1.0, last_ms = -1.0;
    int last_failed = 0;
    for (double rate : {0.05, 0.2, 0.4}) {
        FaultMonteCarlo experiment;
        experiment.addBenchmark(model).addConfig("kill", faultyConfig(rate));
        MonteCarloOptions options;
        options.trials = 32;
        options.baseSeed = 7;
        const std::vector<SweepResult> results = experiment.run(options);
        ASSERT_EQ(results.size(), 1u);
        const FaultSweepStats &stats = results[0].faults;
        EXPECT_GE(stats.capacityLost.mean, last_capacity);
        EXPECT_GE(stats.msPerIteration.mean, last_ms);
        EXPECT_GE(stats.failedTrials, last_failed);
        last_capacity = stats.capacityLost.mean;
        last_ms = stats.msPerIteration.mean;
        last_failed = stats.failedTrials;
    }
    EXPECT_GT(last_capacity, 0.0);
}

} // namespace
} // namespace lergan
