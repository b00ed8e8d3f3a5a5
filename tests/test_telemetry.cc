/**
 * @file
 * Tests for the telemetry subsystem: registry create-or-get semantics,
 * histogram bucketing, the three exporters, and a multi-threaded
 * hammer that the TSan stage of scripts/check.sh re-runs (label
 * "telemetry").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exec/thread_pool.hh"
#include "telemetry/metrics.hh"

namespace lergan {
namespace {

TEST(MetricsRegistry, CreateOrGetReturnsSameInstrument)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("sim.tasks.executed");
    Counter &b = registry.counter("sim.tasks.executed");
    EXPECT_EQ(&a, &b);
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(registry.size(), 1u);

    registry.gauge("cache.model.size").set(2.0);
    registry.histogram("sim.queue.depth").observe(5);
    EXPECT_EQ(registry.size(), 3u);

    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_TRUE(registry.snapshot().empty());
}

TEST(MetricsRegistry, KindMismatchPanics)
{
    MetricsRegistry registry;
    registry.counter("sim.iterations");
    EXPECT_DEATH(registry.gauge("sim.iterations"), "");
    EXPECT_DEATH(registry.histogram("sim.iterations"), "");
}

TEST(Histogram, BucketsByBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(1023), 10);
    EXPECT_EQ(Histogram::bucketOf(1024), 11);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64);

    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1023u);
    EXPECT_EQ(Histogram::bucketUpperBound(64), UINT64_MAX);

    Histogram hist;
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    hist.observe(0);
    hist.observe(7);
    hist.observe(8);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.sum(), 15u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 8u);
    EXPECT_EQ(hist.bucketCount(0), 1u); // the zero
    EXPECT_EQ(hist.bucketCount(3), 1u); // 7 in [4,7]
    EXPECT_EQ(hist.bucketCount(4), 1u); // 8 in [8,15]
}

TEST(Histogram, BulkAddMatchesObservingEachSample)
{
    const std::vector<std::uint64_t> first = {5, 0, 1024, 3};
    const std::vector<std::uint64_t> second = {2, 9000};
    Histogram observed, added;
    for (const auto *samples : {&first, &second}) {
        HistogramBins bins;
        for (const std::uint64_t sample : *samples) {
            observed.observe(sample);
            bins.observe(sample);
        }
        added.add(bins);
    }
    added.add(HistogramBins{}); // empty bins leave min/max alone
    EXPECT_EQ(added.count(), observed.count());
    EXPECT_EQ(added.sum(), observed.sum());
    EXPECT_EQ(added.min(), 0u);
    EXPECT_EQ(added.max(), 9000u);
    for (int b = 0; b < Histogram::kBuckets; ++b)
        EXPECT_EQ(added.bucketCount(b), observed.bucketCount(b)) << b;
}

MetricsSnapshot
exampleSnapshot()
{
    MetricsRegistry registry;
    registry.counter("ic.htree.wire.flits").add(12);
    registry.gauge("cache.model.hits").set(3.0);
    Histogram &hist = registry.histogram("sim.queue.depth");
    hist.observe(0);
    hist.observe(5);
    return registry.snapshot();
}

TEST(MetricsSnapshot, JsonExportIsValidJson)
{
    std::ostringstream oss;
    exampleSnapshot().writeJson(oss);
    std::string error;
    EXPECT_TRUE(isValidJson(oss.str(), &error)) << error << "\n"
                                                << oss.str();
    EXPECT_NE(oss.str().find("ic.htree.wire.flits"), std::string::npos);
}

TEST(MetricsSnapshot, PrometheusExportShape)
{
    std::ostringstream oss;
    exampleSnapshot().writePrometheus(oss);
    const std::string text = oss.str();
    // Names are sanitized: dots become underscores.
    EXPECT_NE(text.find("ic_htree_wire_flits 12"), std::string::npos);
    EXPECT_NE(text.find("cache_model_hits 3"), std::string::npos);
    EXPECT_NE(text.find("sim_queue_depth_count 2"), std::string::npos);
    EXPECT_NE(text.find("sim_queue_depth_sum 5"), std::string::npos);
    // Cumulative buckets end with exactly one +Inf line.
    const std::string inf = "le=\"+Inf\"";
    const std::size_t first = text.find(inf);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(inf, first + 1), std::string::npos);
}

TEST(MetricsSnapshot, CsvExportShape)
{
    std::ostringstream oss;
    exampleSnapshot().writeCsv(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("counter,ic.htree.wire.flits"),
              std::string::npos);
    EXPECT_NE(text.find("gauge,cache.model.hits"), std::string::npos);
    EXPECT_NE(text.find("histogram,sim.queue.depth"), std::string::npos);
}

TEST(MetricsSnapshot, EqualContentsSerializeByteIdentically)
{
    // The determinism goldens rely on this: same instrument values,
    // independent of recording order, produce the same bytes.
    MetricsRegistry a;
    a.counter("ic.bus.flits").add(2);
    a.counter("sim.graph.runs").add(1);
    MetricsRegistry b;
    b.counter("sim.graph.runs").add(1);
    b.counter("ic.bus.flits").add(1);
    b.counter("ic.bus.flits").add(1);
    std::ostringstream oa, ob;
    a.snapshot().writePrometheus(oa);
    b.snapshot().writePrometheus(ob);
    EXPECT_EQ(oa.str(), ob.str());
}

TEST(MetricsRegistry, ConcurrentRecordingFromWorkerPool)
{
    // Sweep workers record into one registry at once; hammer it from
    // several threads and check the integer totals are exact.
    // scripts/check.sh re-runs this under -fsanitize=thread
    // (ctest -L telemetry).
    MetricsRegistry registry;
    constexpr std::size_t kTasks = 64;
    constexpr int kOpsPerTask = 1000;
    parallelFor(kTasks, 4, [&registry](std::size_t t, std::size_t) {
        // Mix instrument *creation* (mutex path) with recording
        // (atomics) across many dotted names.
        Counter &flits = registry.counter("ic.bus.flits");
        Histogram &depth = registry.histogram("sim.queue.depth");
        Counter &mine =
            registry.counter("sim.task." + std::to_string(t % 8));
        for (int i = 0; i < kOpsPerTask; ++i) {
            flits.add(1);
            depth.observe(static_cast<std::uint64_t>(i));
            mine.add(1);
        }
        registry.gauge("cache.model.size").set(1.0);
    });
    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.at("ic.bus.flits"),
              static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
    const HistogramSnapshot &depth =
        snapshot.histograms.at("sim.queue.depth");
    EXPECT_EQ(depth.count, static_cast<std::uint64_t>(kTasks) *
                               kOpsPerTask);
    EXPECT_EQ(depth.min, 0u);
    EXPECT_EQ(depth.max, static_cast<std::uint64_t>(kOpsPerTask - 1));
    std::uint64_t per_task_total = 0;
    for (int t = 0; t < 8; ++t)
        per_task_total += snapshot.counters.at("sim.task." +
                                               std::to_string(t));
    EXPECT_EQ(per_task_total,
              static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
}

TEST(MetricsRegistry, ConcurrentSnapshotsMatchSingleThreadedReference)
{
    // A registry hammered from 8 threads must serialize
    // byte-identically to one fed the same observations on a single
    // thread. This is the contract the determinism goldens rest on;
    // scripts/check.sh re-runs it under -fsanitize=thread.
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 2000;

    MetricsRegistry concurrent;
    parallelFor(kThreads, kThreads, [&concurrent](std::size_t,
                                                  std::size_t) {
        Counter &runs = concurrent.counter("sim.graph.runs");
        Histogram &lat = concurrent.histogram("sim.task.latency");
        for (int i = 0; i < kOpsPerThread; ++i) {
            runs.add(2);
            lat.observe(static_cast<std::uint64_t>(i * 3));
        }
    });
    concurrent.gauge("cache.model.size").set(7.0);

    MetricsRegistry reference;
    {
        Counter &runs = reference.counter("sim.graph.runs");
        Histogram &lat = reference.histogram("sim.task.latency");
        for (int t = 0; t < kThreads; ++t)
            for (int i = 0; i < kOpsPerThread; ++i) {
                runs.add(2);
                lat.observe(static_cast<std::uint64_t>(i * 3));
            }
        reference.gauge("cache.model.size").set(7.0);
    }

    std::ostringstream got, want;
    concurrent.snapshot().writePrometheus(got);
    reference.snapshot().writePrometheus(want);
    EXPECT_EQ(got.str(), want.str());

    // The extrema are exact, not bucket-rounded.
    const MetricsSnapshot snap = concurrent.snapshot();
    const HistogramSnapshot &lat =
        snap.histograms.at("sim.task.latency");
    EXPECT_EQ(lat.min, 0u);
    EXPECT_EQ(lat.max,
              static_cast<std::uint64_t>((kOpsPerThread - 1) * 3));
    EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kThreads) *
                             kOpsPerThread);
}

} // namespace
} // namespace lergan
