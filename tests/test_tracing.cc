/**
 * @file
 * Tests for the causal tracing layer: the flight-recorder rings, the
 * RAII span API, the NDJSON exporter's determinism contract, and the
 * anomaly report. The multi-thread cases carry the "tracing" ctest
 * label so scripts/check.sh re-runs them under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/anomaly.hh"
#include "core/api.hh"
#include "core/sweep.hh"
#include "exec/engine.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/tracing.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

SpanEvent
makeEvent(TraceId trace, SpanId span, SpanId parent = 0,
          const char *name = "x")
{
    SpanEvent event;
    event.trace = trace;
    event.span = span;
    event.parent = parent;
    event.name = name;
    event.beginNs = span * 10;
    event.endNs = span * 10 + 5;
    event.lane = 0;
    return event;
}

TEST(FlightRing, RoundsCapacityUpToAPowerOfTwo)
{
    EXPECT_EQ(FlightRing(5).capacity(), 8u);
    EXPECT_EQ(FlightRing(8).capacity(), 8u);
    EXPECT_EQ(FlightRing(0).capacity(), 1u);
}

TEST(FlightRing, WraparoundKeepsTheNewestEvents)
{
    FlightRing ring(8);
    for (SpanId s = 1; s <= 20; ++s)
        ring.push(makeEvent(1, s));

    EXPECT_EQ(ring.recorded(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);

    const std::vector<SpanEvent> resident = ring.snapshot();
    ASSERT_EQ(resident.size(), 8u);
    for (std::size_t i = 0; i < resident.size(); ++i) {
        // Oldest-to-newest: spans 13..20, none torn.
        EXPECT_EQ(resident[i].span, 13u + i);
        EXPECT_EQ(resident[i].trace, 1u);
        EXPECT_EQ(resident[i].endNs, resident[i].beginNs + 5);
    }
}

TEST(FlightRing, SnapshotBeforeWraparoundReturnsOnlyPushedEvents)
{
    FlightRing ring(8);
    ring.push(makeEvent(3, 1));
    ring.push(makeEvent(3, 2));
    const std::vector<SpanEvent> resident = ring.snapshot();
    ASSERT_EQ(resident.size(), 2u);
    EXPECT_EQ(resident[0].span, 1u);
    EXPECT_EQ(resident[1].span, 2u);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Tracing, RootAndChildrenRecordInProgramOrder)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span root(7, "point");
        EXPECT_TRUE(root.active());
        EXPECT_EQ(root.trace(), 7u);
        EXPECT_EQ(root.id(), 1u);
        {
            Span compile("compile");
            compile.attr("cache_hit", false);
            EXPECT_EQ(compile.id(), 2u);
        }
        {
            Span simulate("simulate");
            EXPECT_EQ(simulate.id(), 3u);
        }
        EXPECT_EQ(root.spansInTrace(), 3u);
    }

    const std::vector<SpanEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 3u);
    // collect() sorts by (trace, span) even though the root is pushed
    // last (it closes last).
    EXPECT_STREQ(events[0].name, "point");
    EXPECT_EQ(events[0].parent, 0u);
    EXPECT_STREQ(events[1].name, "compile");
    EXPECT_EQ(events[1].parent, 1u);
    EXPECT_STREQ(events[2].name, "simulate");
    EXPECT_EQ(events[2].parent, 1u);
    for (const SpanEvent &event : events) {
        EXPECT_EQ(event.trace, 7u);
        EXPECT_EQ(event.lane, SpanEvent::kMainLane);
        EXPECT_GE(event.endNs, event.beginNs);
    }
    ASSERT_EQ(events[1].attrCount, 1u);
    EXPECT_STREQ(events[1].attrs[0].key, "cache_hit");
    EXPECT_EQ(events[1].attrs[0].kind, SpanAttr::Kind::Bool);
    EXPECT_EQ(events[1].attrs[0].i, 0);
}

TEST(Tracing, AttributesBeyondCapacityAreDroppedAndTextTruncates)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span root(1, "point");
        root.attr("a", std::int64_t{42});
        root.attr("b", 2.5);
        root.attr("c", std::string_view("a-rather-long-benchmark-name"));
        root.attr("d", true);
        root.attr("e", std::int64_t{5}); // fifth: dropped
    }
    const std::vector<SpanEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(events[0].attrCount, 4u);
    EXPECT_EQ(events[0].attrs[0].i, 42);
    EXPECT_EQ(events[0].attrs[1].f, 2.5);
    // Text is truncated to kTextCapacity - 1 characters + NUL.
    EXPECT_EQ(std::string(events[0].attrs[2].text), "a-rather-long-b");
    EXPECT_EQ(events[0].attrs[3].kind, SpanAttr::Kind::Bool);
}

TEST(Tracing, UnboundThreadSpansAreInert)
{
    Span root(1, "point");
    EXPECT_FALSE(root.active());
    root.attr("ignored", true); // must not crash
    EXPECT_EQ(root.spansInTrace(), 0u);
    EXPECT_EQ(currentSpan(), nullptr);
    annotate("ignored", std::int64_t{1}); // must not crash
}

TEST(Tracing, OrphanChildWithoutARootIsInert)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span child("stage"); // no root open on this thread
        EXPECT_FALSE(child.active());
    }
    EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(Tracing, NestedRootRestoresTheOuterTrace)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span outer(1, "outer");
        {
            Span inner(2, "inner");
            EXPECT_EQ(inner.trace(), 2u);
            EXPECT_EQ(inner.id(), 1u);
        }
        // The outer trace's id allocation resumes where it left off.
        Span child("after");
        EXPECT_EQ(child.trace(), 1u);
        EXPECT_EQ(child.id(), 2u);
    }
    const std::vector<SpanEvent> inner = recorder.collectTrace(2);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_STREQ(inner[0].name, "inner");
}

TEST(Tracing, AnnotateTargetsTheInnermostOpenSpan)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span root(1, "point");
        Span stage("compile");
        EXPECT_EQ(currentSpan(), &stage);
        annotate("cache_hit", true);
    }
    const std::vector<SpanEvent> events = recorder.collectTrace(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].attrCount, 0u);
    ASSERT_EQ(events[1].attrCount, 1u);
    EXPECT_STREQ(events[1].attrs[0].key, "cache_hit");
}

TEST(Tracing, AllocatedTraceIdsNeverCollideWithSweepPoints)
{
    FlightRecorder recorder;
    const TraceId first = recorder.allocateTraceId();
    const TraceId second = recorder.allocateTraceId();
    EXPECT_GE(first, TraceId{1} << 32);
    EXPECT_EQ(second, first + 1);
}

TEST(Tracing, FormatTraceDumpRendersOnlyTheRequestedTrace)
{
    FlightRecorder recorder;
    MainLaneBinding bind(recorder);
    {
        Span a(1, "alpha");
    }
    {
        Span b(2, "beta");
    }
    const std::string dump = formatTraceDump(recorder.mainRing(), 2);
    EXPECT_NE(dump.find("beta"), std::string::npos);
    EXPECT_EQ(dump.find("alpha"), std::string::npos);
    EXPECT_TRUE(formatTraceDump(recorder.mainRing(), 99).empty());
}

TEST(Tracing, SpanTreeNotesEvictedParents)
{
    std::ostringstream os;
    printSpanTree(os, {makeEvent(1, 6, /*parent=*/5, "orphan")});
    EXPECT_NE(os.str().find("parent span not resident"),
              std::string::npos);
}

SpanEvent
timedEvent(std::uint32_t lane, TraceId trace, SpanId span, SpanId parent,
           const char *name, std::uint64_t begin, std::uint64_t end)
{
    SpanEvent event = makeEvent(trace, span, parent, name);
    event.lane = lane;
    event.beginNs = begin;
    event.endNs = end;
    return event;
}

TEST(FlightRecorder, SelfTimesSubtractDirectChildren)
{
    constexpr std::uint32_t kMain = SpanEvent::kMainLane;
    const std::vector<SpanEvent> events = {
        // Lane 0, trace 1: a point with two stages, one of them nested.
        timedEvent(0, 1, 1, 0, "point", 0, 100),
        timedEvent(0, 1, 2, 1, "compile", 10, 40),
        timedEvent(0, 1, 3, 1, "simulate", 40, 90),
        timedEvent(0, 1, 4, 3, "audit", 50, 70),
        // Lane 1 reuses trace 1 over overlapping times: its compile
        // must not subtract from lane 0's point.
        timedEvent(1, 1, 1, 0, "run", 5, 55),
        timedEvent(1, 1, 2, 1, "compile", 10, 30),
        // A childless root on the main lane.
        timedEvent(kMain, 7, 1, 0, "export", 200, 230),
        // A later run on lane 0 reuses trace 1 and span ids 1-3: its
        // audit must not subtract from the first run's span 2.
        timedEvent(0, 1, 1, 0, "point", 1000, 1200),
        timedEvent(0, 1, 2, 1, "template", 1010, 1150),
        timedEvent(0, 1, 3, 2, "audit", 1100, 1130),
    };
    const auto totals = spanSelfTimes(events);
    ASSERT_EQ(totals.size(), 7u);
    EXPECT_EQ(totals.at("point").ns, 20u + 60u);
    EXPECT_EQ(totals.at("point").calls, 2u);
    EXPECT_EQ(totals.at("compile").ns, 30u + 20u);
    EXPECT_EQ(totals.at("compile").calls, 2u);
    EXPECT_EQ(totals.at("simulate").ns, 30u);
    EXPECT_EQ(totals.at("simulate").calls, 1u);
    EXPECT_EQ(totals.at("audit").ns, 20u + 30u);
    EXPECT_EQ(totals.at("audit").calls, 2u);
    EXPECT_EQ(totals.at("run").ns, 30u);
    EXPECT_EQ(totals.at("template").ns, 110u);
    EXPECT_EQ(totals.at("export").ns, 30u);
    EXPECT_EQ(totals.at("export").calls, 1u);

    std::ostringstream os;
    printSpanSelfTimes(os, events);
    EXPECT_NE(os.str().find("  point               0.000 ms  2 calls\n"),
              std::string::npos)
        << os.str();
}

/**
 * Eight lanes recording concurrently — the TSan-label stress. Every
 * lane writes only its own ring, so the only shared state is each
 * ring's head counter; a data race here is a sharding bug.
 */
TEST(Tracing, EightLanesRecordConcurrentlyWithoutInterference)
{
    constexpr std::size_t kLanes = 8;
    constexpr std::size_t kTracesPerLane = 200;
    FlightRecorder recorder;
    recorder.prepareLanes(kLanes);

    std::vector<std::thread> threads;
    threads.reserve(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        threads.emplace_back([&recorder, lane] {
            TraceLaneBinding bind(recorder.lane(lane),
                                  static_cast<std::uint32_t>(lane));
            for (std::size_t t = 0; t < kTracesPerLane; ++t) {
                Span root(static_cast<TraceId>(lane * kTracesPerLane +
                                               t + 1),
                          "point");
                Span stage("stage");
                annotate("index", static_cast<std::int64_t>(t));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(recorder.recorded(), kLanes * kTracesPerLane * 2);
    EXPECT_EQ(recorder.dropped(), 0u);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::vector<SpanEvent> resident =
            recorder.lane(lane).snapshot();
        ASSERT_EQ(resident.size(), kTracesPerLane * 2);
        for (const SpanEvent &event : resident) {
            EXPECT_EQ(event.lane, lane);
            EXPECT_GT(event.trace, lane * kTracesPerLane);
            EXPECT_LE(event.trace, (lane + 1) * kTracesPerLane);
            EXPECT_GE(event.endNs, event.beginNs);
        }
    }
}

TEST(TracedEngine, FailedPointCapturesItsSpanDump)
{
    FlightRecorder recorder;
    const auto statuses = runPoints(
        4, 2,
        [](std::size_t i, std::size_t) {
            if (i == 2)
                throw std::runtime_error("boom");
        },
        {}, nullptr, &recorder);

    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_FALSE(statuses[2].ok);
    EXPECT_EQ(statuses[2].error, "boom");
    EXPECT_NE(statuses[2].spanDump.find("point"), std::string::npos);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(statuses[i].ok);
        EXPECT_TRUE(statuses[i].spanDump.empty());
    }
    for (const PointStatus &status : statuses) {
        EXPECT_GE(status.spanCount, 1u);
        EXPECT_GE(status.queueWaitMs, 0.0);
    }
    // Every point's root span is resident under trace = index + 1.
    for (TraceId trace = 1; trace <= 4; ++trace)
        EXPECT_FALSE(recorder.collectTrace(trace).empty());
}

TEST(TracedEngine, TraceIdMapperOverridesTheDefault)
{
    FlightRecorder recorder;
    runPoints(
        2, 1, [](std::size_t, std::size_t) {}, {}, nullptr, &recorder,
        [](std::size_t k) { return static_cast<TraceId>(100 + k); });
    EXPECT_FALSE(recorder.collectTrace(100).empty());
    EXPECT_FALSE(recorder.collectTrace(101).empty());
    EXPECT_TRUE(recorder.collectTrace(1).empty());
}

ExperimentSweep
tracedSweep()
{
    AcceleratorConfig lergan = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    lergan.batchSize = 4;
    AcceleratorConfig prime = AcceleratorConfig::prime();
    prime.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addBenchmark(makeBenchmark("cGAN"))
        .addConfig("lergan", lergan)
        .addConfig("prime", prime)
        .withTracing();
    return sweep;
}

std::string
spanNdjson(const FlightRecorder &recorder, bool include_host)
{
    std::ostringstream os;
    writeSpanNdjson(os, recorder.collect(), include_host);
    return os.str();
}

/** Strip each line's trailing ,"host":{...} — the golden filter. */
std::string
stripHost(const std::string &ndjson)
{
    std::istringstream in(ndjson);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t pos = line.rfind(",\"host\":{");
        if (pos != std::string::npos)
            line = line.substr(0, pos) + "}";
        out << line << '\n';
    }
    return out.str();
}

TEST(TracedSweep, NdjsonExportIsIdenticalAtOneAndFourWorkers)
{
    RunOptions serial;
    serial.threads = 1;
    RunOptions parallel;
    parallel.threads = 4;

    ExperimentSweep one = tracedSweep();
    one.run(serial);
    const std::string at1 = spanNdjson(*one.recorder(), false);

    ExperimentSweep four = tracedSweep();
    four.run(parallel);
    const std::string at4 = spanNdjson(*four.recorder(), false);

    EXPECT_FALSE(at1.empty());
    EXPECT_EQ(at1, at4);
    EXPECT_NE(at1.find("\"name\":\"point\""), std::string::npos);
    EXPECT_NE(at1.find("\"name\":\"compile\""), std::string::npos);
    EXPECT_NE(at1.find("\"name\":\"simulate\""), std::string::npos);
    EXPECT_NE(at1.find("\"cache_hit\""), std::string::npos);
}

TEST(TracedSweep, HostObjectStripsToTheDeterministicShape)
{
    ExperimentSweep sweep = tracedSweep();
    RunOptions options;
    options.threads = 2;
    sweep.run(options);

    const std::string with_host = spanNdjson(*sweep.recorder(), true);
    const std::string without = spanNdjson(*sweep.recorder(), false);
    EXPECT_NE(with_host.find("\"host\":{"), std::string::npos);
    EXPECT_NE(with_host.find("\"queue_wait_ms\""), std::string::npos);
    EXPECT_EQ(without.find("\"host\":{"), std::string::npos);
    EXPECT_EQ(stripHost(with_host), without);
}

TEST(TracedSweep, PointTelemetryCarriesSpanCountsAndQueueWait)
{
    ExperimentSweep sweep = tracedSweep();
    RunOptions options;
    options.threads = 2;
    options.pointTelemetry = true;
    const auto results = sweep.run(options);

    ASSERT_EQ(results.size(), 4u);
    for (const SweepResult &result : results) {
        EXPECT_TRUE(result.telemetry.ran);
        EXPECT_TRUE(result.telemetry.traced);
        // At least the root, compile, template and simulate spans.
        EXPECT_GE(result.telemetry.spanCount, 4u);
        EXPECT_GE(result.telemetry.queueWaitMs, 0.0);
        EXPECT_TRUE(result.traceDump.empty()) << "point did not fail";
    }
}

TEST(TracedSweep, UntracedRunsKeepTheHistoricalTelemetryShape)
{
    ExperimentSweep sweep = tracedSweep();
    sweep.withTracing(nullptr);
    RunOptions options;
    options.pointTelemetry = true;
    const auto results = sweep.run(options);
    for (const SweepResult &result : results) {
        EXPECT_TRUE(result.telemetry.ran);
        EXPECT_FALSE(result.telemetry.traced);
        EXPECT_EQ(result.telemetry.spanCount, 0u);
    }
}

TEST(AnomalyReport, SlowPointsBeyondTheQuantileAreExplained)
{
    ExperimentSweep sweep = tracedSweep();
    RunOptions options;
    options.threads = 2;
    options.pointTelemetry = true;
    const auto results = sweep.run(options);

    std::ostringstream os;
    AnomalyOptions anomalies;
    anomalies.quantile = 0.5; // half the grid lands beyond the median
    const std::size_t count =
        writeAnomalyReport(os, results, *sweep.recorder(), anomalies);

    EXPECT_GE(count, 1u);
    const std::string report = os.str();
    EXPECT_NE(report.find("anomaly report:"), std::string::npos);
    EXPECT_NE(report.find("[slow]"), std::string::npos);
    EXPECT_NE(report.find("simulate"), std::string::npos);
}

TEST(AnomalyReport, QuietSweepReportsNothing)
{
    ExperimentSweep sweep = tracedSweep();
    RunOptions options;
    options.pointTelemetry = true;
    const auto results = sweep.run(options);

    std::ostringstream os;
    AnomalyOptions anomalies;
    anomalies.quantile = 1.0; // only strictly-beyond-max would qualify
    EXPECT_EQ(writeAnomalyReport(os, results, *sweep.recorder(),
                                 anomalies),
              0u);
    EXPECT_NE(os.str().find("0 of 4 points"), std::string::npos);
}

TEST(TracedSession, RunRecordsStageSpansOnTheMainRing)
{
    SimulationSession session(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    session.withTracing();
    session.run(makeBenchmark("cGAN"), 1);

    const std::vector<SpanEvent> events = session.recorder()->collect();
    ASSERT_FALSE(events.empty());
    EXPECT_GE(events[0].trace, TraceId{1} << 32);
    bool saw_run = false, saw_compile = false, saw_simulate = false;
    for (const SpanEvent &event : events) {
        saw_run = saw_run || std::string(event.name) == "run";
        saw_compile = saw_compile || std::string(event.name) == "compile";
        saw_simulate =
            saw_simulate || std::string(event.name) == "simulate";
        EXPECT_EQ(event.lane, SpanEvent::kMainLane);
    }
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(saw_compile);
    EXPECT_TRUE(saw_simulate);
}

} // namespace
} // namespace lergan
