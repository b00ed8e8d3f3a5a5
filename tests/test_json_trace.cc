/**
 * @file
 * Tests for the JSON writer, the execution tracer and the utilization
 * reporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.hh"
#include "core/accelerator.hh"
#include "sim/observe.hh"
#include "sim/task_graph.hh"
#include "task_helpers.hh"
#include "sim/trace.hh"
#include "sim/trace_tracks.hh"
#include "sim/utilization.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

/** Occupy each (resource, duration) pair's resource for that long from
 *  time zero: one independent task per pair, run through the executor. */
TaskGraph
occupy(std::initializer_list<std::pair<std::size_t, PicoSeconds>> slots)
{
    TaskGraph graph;
    for (const auto &[rid, duration] : slots)
        addNamedTask(graph, "t", {rid}, duration);
    graph.execute();
    return graph;
}

TEST(Json, ObjectsAndArrays)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginObject();
    json.key("name").value("DCGAN");
    json.key("n").value(42);
    json.key("ratio").value(0.5);
    json.key("ok").value(true);
    json.key("list").beginArray();
    json.value(1).value(2).value(3);
    json.endArray();
    json.endObject();
    EXPECT_EQ(oss.str(),
              "{\"name\":\"DCGAN\",\"n\":42,\"ratio\":0.5,\"ok\":true,"
              "\"list\":[1,2,3]}");
}

TEST(Json, NestedObjects)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginArray();
    json.beginObject();
    json.key("a").value(1);
    json.endObject();
    json.beginObject();
    json.key("b").beginObject().endObject();
    json.endObject();
    json.endArray();
    EXPECT_EQ(oss.str(), "[{\"a\":1},{\"b\":{}}]");
}

TEST(Json, Escaping)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

/** Execute @p graph and derive @p tracer from the run's record. */
PicoSeconds
traceRun(const TaskGraph &graph, Tracer &tracer)
{
    ExecRecord record;
    const PicoSeconds makespan = graph.execute(nullptr, &record);
    ExecScratch scratch;
    deriveObservers(graph, record, &tracer, nullptr, scratch);
    return makespan;
}

TEST(Trace, RecordsTaskIntervals)
{
    const std::size_t r = 0;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "first", {r}, 10);
    const TaskId b = addNamedTask(graph, "second", {r}, 5);
    graph.addDep(b, a);

    Tracer tracer;
    traceRun(graph, tracer);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.label(tracer.events()[0]), "first");
    EXPECT_EQ(tracer.events()[0].start, 0u);
    EXPECT_EQ(tracer.events()[0].end, 10u);
    EXPECT_EQ(tracer.events()[1].start, 10u);
    EXPECT_EQ(tracer.events()[1].end, 15u);
    EXPECT_EQ(tracer.events()[0].lane, r);
}

TEST(Trace, NullTracerIsFine)
{
    TaskGraph graph;
    addNamedTask(graph, "t", {}, 1);
    EXPECT_EQ(graph.execute(), 1u);
}

TEST(Trace, ChromeExportIsValidJsonShape)
{
    Tracer tracer;
    TaskGraph graph;
    recordNamedTask(tracer, graph, "task \"x\"", 0, nsToPs(1.0), 0);
    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {"lane0"});
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\\\"x\\\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("lane0"), std::string::npos);
}

TEST(Trace, UnlanedTasksGetNamedTrack)
{
    Tracer tracer;
    TaskGraph graph;
    recordNamedTask(tracer, graph, "detached", 0, 10, SIZE_MAX);
    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {"lane0"});
    const std::string out = oss.str();
    // SIZE_MAX lanes map to tid 0 with a human-readable name, not to
    // tid 18446744073709551615.
    EXPECT_EQ(out.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(out.find("(no resource)"), std::string::npos);
    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;
}

TEST(Trace, CounterSamplesBecomeCounterTracks)
{
    Tracer tracer;
    tracer.recordCounter("sim.queue.depth", 0, 1.0);
    tracer.recordCounter("sim.queue.depth", 100, 3.0);
    // Same track + time overwrites: one instant keeps its final value.
    tracer.recordCounter("sim.queue.depth", 100, 2.0);
    ASSERT_EQ(tracer.counterSamples().size(), 2u);
    EXPECT_DOUBLE_EQ(tracer.counterSamples()[1].value, 2.0);

    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {});
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("sim.queue.depth"), std::string::npos);
    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;

    tracer.clear();
    EXPECT_TRUE(tracer.counterSamples().empty());
}

TEST(Trace, ExecutorRecordsOccupancyCounters)
{
    const std::size_t r = 0;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "first", {r}, 10);
    const TaskId b = addNamedTask(graph, "second", {r}, 5);
    graph.addDep(b, a);

    Tracer tracer;
    traceRun(graph, tracer);
    bool saw_depth = false;
    for (const CounterSample &sample : tracer.counterSamples())
        saw_depth = saw_depth ||
                    tracer.trackName(sample.track) == "sim.queue.depth";
    EXPECT_TRUE(saw_depth);
}

/** FNV-1a-64 over a byte sequence, fed in pieces. */
struct Fnv1a64 {
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }

    /** Little-endian, so the digest is host-independent. */
    void
    word(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }

    /** The text, then a terminating zero byte. */
    void
    text(const std::string &value)
    {
        for (const char c : value)
            byte(static_cast<std::uint8_t>(c));
        byte(0);
    }
};

/**
 * The fig19 --trace point (DCGAN on LerGAN-low, one iteration) with a
 * tracer attached: event and counter-sample counts plus a digest of
 * every event's (label, start, end, lane) and of every sample's (track,
 * time, value bits). Captured from the in-loop observers the executor
 * used to feed; the observers derived from the run's record must
 * reproduce them sample for sample.
 */
TEST(Trace, Fig19TracePointIsPinned)
{
    const GanModel model = makeBenchmark("DCGAN");
    LerGanAccelerator accelerator(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    Tracer tracer;
    accelerator.trainIterations(1, &tracer);

    Fnv1a64 events;
    for (const TraceEvent &event : tracer.events()) {
        events.text(tracer.label(event));
        events.word(event.start);
        events.word(event.end);
        events.word(event.lane);
    }
    Fnv1a64 samples;
    for (const CounterSample &sample : tracer.counterSamples()) {
        samples.text(tracer.trackName(sample.track));
        samples.word(sample.time);
        samples.word(std::bit_cast<std::uint64_t>(sample.value));
    }
    EXPECT_EQ(tracer.events().size(), 9632u);
    EXPECT_EQ(tracer.counterSamples().size(), 57792u);
    EXPECT_EQ(events.hash, 0xbaae2d074e48f0e0ull);
    EXPECT_EQ(samples.hash, 0xdd03e3463fc6a70dull);
}

/**
 * A tracer filled by trainIterations outlives the accelerator and the
 * template that produced it: labels and the Chrome export stay
 * readable, both for a run of a cached template and for a run that
 * built its own.
 */
TEST(Trace, OutlivesAcceleratorAndTemplate)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 2;
    Tracer cached, rebuilt;
    {
        LerGanAccelerator accelerator(model, config);
        auto tmpl = accelerator.makeIterationTemplate();
        accelerator.trainIterations(1, &cached, nullptr, tmpl.get());
        accelerator.trainIterations(1, &rebuilt);
    }
    for (const Tracer *tracer : {&cached, &rebuilt}) {
        ASSERT_FALSE(tracer->events().empty());
        std::size_t labelled = 0;
        for (const TraceEvent &event : tracer->events())
            labelled += !tracer->label(event).empty();
        EXPECT_EQ(labelled, tracer->events().size());
        std::ostringstream oss;
        tracer->exportChromeTrace(oss);
        std::string error;
        EXPECT_TRUE(isValidJson(oss.str(), &error)) << error;
        EXPECT_NE(oss.str().find(tracer->label(tracer->events().back())),
                  std::string::npos);
    }
}

/**
 * The executor's occupancy samples, exactly, on four tasks over two
 * resources with an equal-time tie: a and b complete together at 10
 * and release c and d in the same instant.
 */
TEST(Trace, OccupancySampleSequenceIsExact)
{
    const std::size_t r0 = 0, r1 = 1;
    TaskGraph graph;
    const TaskId a = addNamedTask(graph, "a", {r0}, 10);
    const TaskId b = addNamedTask(graph, "b", {r1}, 10);
    const TaskId c = addNamedTask(graph, "c", {r0}, 5);
    const TaskId d = addNamedTask(graph, "d", {r0, r1}, 3);
    graph.addDep(c, a);
    graph.addDep(d, a);
    graph.addDep(d, b);

    Tracer tracer;
    traceRun(graph, tracer);
    // (track, time, value) triples: depth, ready, in-flight after every
    // pop. a and b fire at 0; a's completion releases c, b's releases d
    // (both at 10, in schedule order); d queues on r0 behind c until 15.
    using Sample = std::tuple<std::string, PicoSeconds, double>;
    const std::vector<Sample> expected = {
        {"sim.queue.depth", 0, 2},  {"sim.ready.tasks", 0, 1},
        {"sim.inflight.tasks", 0, 1},
        {"sim.queue.depth", 0, 2},  {"sim.ready.tasks", 0, 0},
        {"sim.inflight.tasks", 0, 2},
        {"sim.queue.depth", 10, 2}, {"sim.ready.tasks", 10, 1},
        {"sim.inflight.tasks", 10, 1},
        {"sim.queue.depth", 10, 2}, {"sim.ready.tasks", 10, 2},
        {"sim.inflight.tasks", 10, 0},
        {"sim.queue.depth", 10, 2}, {"sim.ready.tasks", 10, 1},
        {"sim.inflight.tasks", 10, 1},
        {"sim.queue.depth", 10, 2}, {"sim.ready.tasks", 10, 0},
        {"sim.inflight.tasks", 10, 2},
        {"sim.queue.depth", 15, 1}, {"sim.ready.tasks", 15, 0},
        {"sim.inflight.tasks", 15, 1},
        {"sim.queue.depth", 18, 0}, {"sim.ready.tasks", 18, 0},
        {"sim.inflight.tasks", 18, 0},
    };
    std::vector<Sample> seen;
    for (const CounterSample &sample : tracer.counterSamples())
        seen.emplace_back(tracer.trackName(sample.track), sample.time,
                          sample.value);
    EXPECT_EQ(seen, expected);
    ASSERT_EQ(tracer.events().size(), 4u);
    EXPECT_EQ(tracer.label(tracer.events()[2]), "c");
    EXPECT_EQ(tracer.events()[3].start, 15u);
    EXPECT_EQ(tracer.events()[3].end, 18u);
}

TEST(TraceTracks, SpanOccupancyAndBusiestLane)
{
    // Two overlapping transfers and one compute span. The second
    // transfer holds wire 1 only in its second slot (its lane is the
    // compute resource 2).
    TaskGraph graph;
    const std::uint32_t a = graph.intern("a");
    const std::uint32_t b = graph.intern("b");
    const std::uint32_t c = graph.intern("c");
    const std::vector<std::size_t> wire0 = {0}, compute_wire1 = {2, 1},
                                   compute = {2};
    graph.addTask({TaskKind::Transfer, Phase::Transfers, a, b,
                   graph.internResources(wire0), 10});
    graph.addTask({TaskKind::Transfer, Phase::Transfers, b, c,
                   graph.internResources(compute_wire1), 20});
    addNamedTask(graph, "mmv", compute, 100, TaskKind::Compute);
    graph.setResourceCategories({ResourceCategory::Wire,
                                 ResourceCategory::Wire,
                                 ResourceCategory::Compute});
    Tracer tracer;
    tracer.bindTasks(graph.identity());
    tracer.recordTask(0, 0, 10, 0);
    tracer.recordTask(1, 5, 25, 2);
    tracer.recordTask(2, 0, 100, 2);
    EXPECT_EQ(tracer.label(tracer.events()[1]), "xfer:b->c");

    const std::size_t samples = addSpanOccupancyTrack(
        tracer, TaskKind::Transfer, "ic.xfer.active");
    EXPECT_GT(samples, 0u);
    // Occupancy rises to 2 in [5,10) and returns to 0 at 25.
    double peak = 0.0, last = -1.0;
    for (const CounterSample &sample : tracer.counterSamples()) {
        if (tracer.trackName(sample.track) != "ic.xfer.active")
            continue;
        peak = std::max(peak, sample.value);
        last = sample.value;
    }
    EXPECT_DOUBLE_EQ(peak, 2.0);
    EXPECT_DOUBLE_EQ(last, 0.0);

    // Wire 1 (20 ps, second slot) beats wire 0 (10 ps, first slot).
    EXPECT_EQ(busiestResource(tracer, graph, ResourceCategory::Wire), 1u);
    EXPECT_EQ(busiestResource(tracer, graph, ResourceCategory::Compute),
              2u);
    EXPECT_EQ(busiestResource(tracer, graph, ResourceCategory::Switch),
              SIZE_MAX);

    // Wire 1's busy curve: 1 in [5,25), then 0.
    const std::size_t first = tracer.counterSamples().size();
    EXPECT_EQ(addResourceOccupancyTrack(tracer, graph, 1, "wire1.busy"),
              2u);
    const auto &samples_after = tracer.counterSamples();
    ASSERT_EQ(samples_after.size(), first + 2);
    EXPECT_EQ(samples_after[first].time, 5u);
    EXPECT_DOUBLE_EQ(samples_after[first].value, 1.0);
    EXPECT_EQ(samples_after[first + 1].time, 25u);
    EXPECT_DOUBLE_EQ(samples_after[first + 1].value, 0.0);
}

TEST(Trace, TimelinePrintsAndTruncates)
{
    Tracer tracer;
    TaskGraph graph;
    for (int i = 0; i < 10; ++i)
        recordNamedTask(tracer, graph, "t" + std::to_string(i), i, i + 1, 0);
    std::ostringstream oss;
    tracer.printTimeline(oss, 3);
    EXPECT_NE(oss.str().find("7 more events"), std::string::npos);
}

TEST(Utilization, TopBusySortsByBusyTime)
{
    const std::vector<std::string> names = {"a", "b"};
    const TaskGraph graph = occupy({{0, 10}, {1, 30}});
    const auto top = topBusyResources(graph, names, 100, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].name, "b");
    EXPECT_DOUBLE_EQ(top[0].utilization, 0.3);
    EXPECT_EQ(top[1].name, "a");
}

TEST(Utilization, PrintsTable)
{
    const std::vector<std::string> names = {"busy.thing"};
    const TaskGraph graph = occupy({{0, 42}});
    std::ostringstream oss;
    printUtilization(oss, graph, names, 100, 5);
    EXPECT_NE(oss.str().find("busy.thing"), std::string::npos);
}

} // namespace
} // namespace lergan
