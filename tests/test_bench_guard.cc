/**
 * @file
 * Tests for the fig19 perf guard: the BENCH_fig19.json writer and its
 * newest-entry reader, the four verdicts at their thresholds, the A/B
 * routine's schedule, the bench CLI's rejection of malformed
 * --bench-workers, --trace-anomalies, --trace-capacity and
 * --metrics-format values, and the --self-profile span table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "exec/thread_pool.hh"
#include "runner.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace bench {
namespace {

/** Per-test scratch file (tests run as parallel processes). */
std::string
scratchPath()
{
    return testing::TempDir() + "bench_guard_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(getpid()) + ".json";
}

BenchMeasurement
measurement(int workers, double pointsPerSec, double efficiency)
{
    BenchMeasurement m;
    m.workers = workers;
    m.repetitions = 2;
    m.wallMs = 80.0;
    m.pointsPerSec = pointsPerSec;
    m.scalingEfficiency = efficiency;
    return m;
}

/** An entry with a 1-worker and a 4-worker measurement. */
BenchEntry
entry(double onePointsPerSec, double fourEfficiency, double recordingPct,
      double tracingPct)
{
    BenchEntry e;
    e.gridPoints = 40;
    e.hardwareThreads = 4;
    e.critpathRecordingPct = recordingPct;
    e.tracingPct = tracingPct;
    e.measurements = {measurement(1, onePointsPerSec, 1.0),
                      measurement(4, 3.0 * onePointsPerSec,
                                  fourEfficiency)};
    return e;
}

/** The ok flag of the one verdict whose line contains @p what. */
bool
verdictOk(const std::vector<GuardVerdict> &verdicts, const std::string &what)
{
    const GuardVerdict *found = nullptr;
    for (const GuardVerdict &v : verdicts) {
        if (v.line.find(what) == std::string::npos)
            continue;
        EXPECT_EQ(found, nullptr) << "two verdicts match '" << what << "'";
        found = &v;
        EXPECT_NE(v.line.find(v.ok ? ": ok" : ": REGRESSION"),
                  std::string::npos)
            << v.line;
    }
    EXPECT_NE(found, nullptr) << "no verdict matches '" << what << "'";
    return found != nullptr && found->ok;
}

struct Argv {
    explicit Argv(std::vector<std::string> args) : storage(std::move(args))
    {
        for (auto &s : storage)
            pointers.push_back(s.data());
    }
    int argc() const { return static_cast<int>(pointers.size()); }
    char **argv() { return pointers.data(); }

    std::vector<std::string> storage;
    std::vector<char *> pointers;
};

/** Parse @p args as a bench would and build its Observability. */
void
makeObservability(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    Argv argv(std::move(args));
    ArgParser parser;
    Observability::addOptions(parser);
    parser.parse(argv.argc(), argv.argv(), "test");
    Observability obs(parser);
}

TEST(BenchGuard, EntryRoundTrips)
{
    BenchEntry written = entry(500.125, 0.6, 25.94, -4.05);
    // A label that spells out a key must not be read as one.
    written.label = "x\", \"workers\": 9, \"tracing\": 99, \"";
    written.measurements.insert(written.measurements.begin() + 1,
                                measurement(2, 700.5, -1.0));
    const std::string path = scratchPath();
    writeBenchJson(path, written, /*append=*/false);

    const BenchEntry read = readNewestBenchEntry(path);
    EXPECT_DOUBLE_EQ(read.critpathRecordingPct, 25.94);
    EXPECT_DOUBLE_EQ(read.tracingPct, -4.05);
    ASSERT_EQ(read.measurements.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(read.measurements[i].workers,
                  written.measurements[i].workers);
        EXPECT_DOUBLE_EQ(read.measurements[i].pointsPerSec,
                         written.measurements[i].pointsPerSec);
    }
    EXPECT_DOUBLE_EQ(read.measurements[0].scalingEfficiency, 1.0);
    EXPECT_LT(read.measurements[1].scalingEfficiency, 0.0); // omitted
    EXPECT_DOUBLE_EQ(read.measurements[2].scalingEfficiency, 0.6);
    std::remove(path.c_str());
}

TEST(BenchGuard, ReaderTakesNothingFromOlderEntries)
{
    const std::string path = scratchPath();
    writeBenchJson(path, entry(500.0, 0.9, 20.0, 1.0), /*append=*/false);
    BenchEntry newest = entry(600.0, 0.9, 21.0, 0.5);
    newest.measurements.pop_back(); // no 4-worker measurement
    writeBenchJson(path, newest, /*append=*/true);

    const BenchEntry read = readNewestBenchEntry(path);
    ASSERT_EQ(read.measurements.size(), 1u);
    EXPECT_EQ(read.measurements[0].workers, 1);
    EXPECT_DOUBLE_EQ(read.measurements[0].pointsPerSec, 600.0);
    EXPECT_DOUBLE_EQ(read.critpathRecordingPct, 21.0);

    // With no committed 4-worker efficiency there is no scaling
    // verdict, however badly the measured 4-worker run scales.
    for (const GuardVerdict &v :
         guardVerdicts(read, entry(600.0, 0.01, 21.0, 0.5)))
        EXPECT_EQ(v.line.find("scaling"), std::string::npos) << v.line;
    std::remove(path.c_str());
}

TEST(BenchGuard, ReadsTheCommittedBaseline)
{
    const BenchEntry committed = readNewestBenchEntry(LERGAN_BENCH_BASELINE);
    EXPECT_DOUBLE_EQ(committed.critpathRecordingPct, 25.94);
    EXPECT_DOUBLE_EQ(committed.tracingPct, -4.05);
    ASSERT_FALSE(committed.measurements.empty());
    EXPECT_EQ(committed.measurements[0].workers, 1);
    EXPECT_GT(committed.measurements[0].pointsPerSec, 0.0);
}

TEST(BenchGuard, ReaderRejectsOtherSchemasAndMissingFields)
{
    const std::string path = scratchPath();
    {
        std::ofstream out(path);
        out << "{\n  \"schema\": \"lergan-bench/2\",\n  \"entries\": [\n"
               "    { \"label\": \"a\", \"measurements\": [] }\n  ]\n}\n";
    }
    EXPECT_EXIT(readNewestBenchEntry(path), testing::ExitedWithCode(1),
                "not a lergan-bench/3 file");
    {
        std::ofstream out(path);
        out << "{\n  \"schema\": \"lergan-bench/3\",\n  \"entries\": [\n"
               "    { \"label\": \"a\", \"measurements\": [] }\n  ]\n}\n";
    }
    EXPECT_EXIT(readNewestBenchEntry(path), testing::ExitedWithCode(1),
                "no \"critpath_recording\"");
    EXPECT_EXIT(writeBenchJson(path + ".missing", entry(1, 1, 1, 1), true),
                testing::ExitedWithCode(1), "cannot read");
    std::remove(path.c_str());
}

TEST(BenchGuard, ThroughputVerdictAtItsFloor)
{
    const BenchEntry committed = entry(500.0, 0.9, 25.94, -4.05);
    const double floor = 500.0 * 0.8;
    EXPECT_TRUE(verdictOk(
        guardVerdicts(committed, entry(floor, 0.9, 25.94, -4.05)),
        "1-worker points/sec"));
    EXPECT_FALSE(verdictOk(
        guardVerdicts(committed, entry(std::nextafter(floor, 0.0), 0.9,
                                       25.94, -4.05)),
        "1-worker points/sec"));
}

TEST(BenchGuard, ScalingVerdictAtItsFloor)
{
    const BenchEntry committed = entry(500.0, 0.9, 25.94, -4.05);
    const double floor = 0.9 * 0.8;
    EXPECT_TRUE(verdictOk(
        guardVerdicts(committed, entry(500.0, floor, 25.94, -4.05)),
        "4-worker scaling efficiency"));
    EXPECT_FALSE(verdictOk(
        guardVerdicts(committed, entry(500.0, std::nextafter(floor, 0.0),
                                       25.94, -4.05)),
        "4-worker scaling efficiency"));
}

TEST(BenchGuard, RecordingVerdictAtItsCeiling)
{
    const BenchEntry committed = entry(500.0, 0.9, 25.94, -4.05);
    const double ceiling = 25.94 + 4.0;
    EXPECT_TRUE(verdictOk(
        guardVerdicts(committed, entry(500.0, 0.9, ceiling, -4.05)),
        "critpath recording overhead"));
    EXPECT_FALSE(verdictOk(
        guardVerdicts(committed,
                      entry(500.0, 0.9, std::nextafter(ceiling, 100.0),
                            -4.05)),
        "critpath recording overhead"));
}

TEST(BenchGuard, TracingVerdictAtItsCeiling)
{
    // A committed overhead near zero leaves the absolute 3% budget...
    const BenchEntry low = entry(500.0, 0.9, 25.94, -4.05);
    EXPECT_TRUE(verdictOk(guardVerdicts(low, entry(500.0, 0.9, 25.94, 3.0)),
                          "tracing overhead"));
    EXPECT_FALSE(verdictOk(
        guardVerdicts(low, entry(500.0, 0.9, 25.94,
                                 std::nextafter(3.0, 100.0))),
        "tracing overhead"));
    // ...and a larger one gets 2 points on top.
    const BenchEntry high = entry(500.0, 0.9, 25.94, 5.0);
    const double ceiling = 5.0 + 2.0;
    EXPECT_TRUE(verdictOk(
        guardVerdicts(high, entry(500.0, 0.9, 25.94, ceiling)),
        "tracing overhead"));
    EXPECT_FALSE(verdictOk(
        guardVerdicts(high, entry(500.0, 0.9, 25.94,
                                  std::nextafter(ceiling, 100.0))),
        "tracing overhead"));
}

TEST(BenchGuard, AbRoutineWarmsUpThenTimesFifteenPairs)
{
    int offRuns = 0;
    int onRuns = 0;
    std::vector<char> order;
    abOverhead(
        [&] {
            ++offRuns;
            order.push_back('f');
        },
        [&] {
            ++onRuns;
            order.push_back('n');
        });
    EXPECT_EQ(offRuns, 16);
    EXPECT_EQ(onRuns, 16);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i % 2 == 0 ? 'f' : 'n');
}

TEST(BenchGuard, WorkerCountsParseStrictly)
{
    EXPECT_EQ(parseWorkerCounts("1,4,4"), (std::vector<int>{1, 4}));
    EXPECT_EQ(parseWorkerCounts("0"),
              (std::vector<int>{static_cast<int>(defaultThreadCount())}));
    for (const char *bad : {"abc", "-3", "1,,4", "", "4x", "+2"})
        EXPECT_EXIT(parseWorkerCounts(bad), testing::ExitedWithCode(1),
                    "--bench-workers")
            << bad;
}

TEST(BenchGuard, TraceAnomaliesQuantileIsChecked)
{
    makeObservability({"--trace-anomalies", "0.5"});
    EXPECT_EXIT(makeObservability({"--trace-anomalies", "abc"}),
                testing::ExitedWithCode(1), "expects a number");
    for (const char *bad : {"0", "1.5", "-0.2", "nan"})
        EXPECT_EXIT(makeObservability({"--trace-anomalies", bad}),
                    testing::ExitedWithCode(1), "must be in \\(0,1\\]")
            << bad;
}

TEST(BenchGuard, TraceCapacityIsChecked)
{
    makeObservability({"--trace-spans", "/dev/null", "--trace-capacity",
                       "1"});
    makeObservability({"--trace-spans", "/dev/null", "--trace-capacity",
                       "65536"});
    EXPECT_EXIT(makeObservability({"--trace-capacity", "abc"}),
                testing::ExitedWithCode(1), "expects an integer");
    EXPECT_EXIT(makeObservability({"--trace-capacity", "12x"}),
                testing::ExitedWithCode(1), "expects an integer");
    EXPECT_EXIT(makeObservability({"--trace-capacity", "2000000000000"}),
                testing::ExitedWithCode(1), "expects an integer");
    for (const char *bad : {"0", "-5", "65537", "2000000000"}) {
        EXPECT_EXIT(makeObservability({"--trace-spans", "/dev/null",
                                       "--trace-capacity", bad}),
                    testing::ExitedWithCode(1),
                    "--trace-capacity must be in \\[1, 65536\\]")
            << bad;
        // Checked even when no span recording asks for the rings.
        EXPECT_EXIT(makeObservability({"--trace-capacity", bad}),
                    testing::ExitedWithCode(1), "--trace-capacity")
            << bad;
    }
}

TEST(BenchGuard, MetricsFormatIsCheckedAtParseTime)
{
    makeObservability({"--metrics-format", "json"});
    EXPECT_EXIT(makeObservability({"--metrics-format", "xml"}),
                testing::ExitedWithCode(1), "unknown --metrics-format");
}

TEST(BenchGuard, SelfProfilePrintsSpanSelfTimes)
{
    const std::string metrics = scratchPath();
    Argv argv({"bench", "--self-profile", "--threads", "2", "--metrics",
               metrics});
    Runner runner("self-profile", "test");
    testing::internal::CaptureStdout(); // the banner
    runner.parse(argv.argc(), argv.argv(), "test");
    testing::internal::GetCapturedStdout();

    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low))
        .addConfig("prime", AcceleratorConfig::prime());
    testing::internal::CaptureStderr();
    ASSERT_EQ(runner.runSweep(sweep, 1).size(), 2u);
    runner.finish();
    const std::string table = testing::internal::GetCapturedStderr();
    for (const char *row :
         {"\n  compile ", "\n  template ", "\n  simulate ", "\n  point "})
        EXPECT_NE(table.find(row), std::string::npos) << row << table;
    EXPECT_NE(table.find(" 2 calls\n"), std::string::npos) << table;

    // Self-profiling adds nothing to the snapshot: its only host metric
    // is the pool's worker count.
    std::ifstream in(metrics);
    bool sim = false;
    for (std::string line; std::getline(in, line);) {
        sim = sim || line.rfind("sim_", 0) == 0;
        if (line.rfind("host_", 0) == 0) {
            EXPECT_EQ(line.rfind("host_pool_threads", 0), 0u) << line;
        }
    }
    std::remove(metrics.c_str());
    EXPECT_TRUE(sim);
}

} // namespace
} // namespace bench
} // namespace lergan
