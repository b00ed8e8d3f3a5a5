#include "runner.hh"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/json.hh"
#include "common/strings.hh"
#include "exec/thread_pool.hh"

namespace lergan {
namespace bench {

namespace {

const std::string kSchemaLine = "\"schema\": \"lergan-bench/3\"";

/** Nearest-rank percentile of an unsorted sample set (q in [0,1]). */
double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size()));
    return samples[std::min(rank, samples.size() - 1)];
}

/** Fixed-point number with enough digits for a perf trajectory. */
std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        LERGAN_FATAL("bench-json: cannot read '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
formatEntry(const BenchEntry &entry)
{
    std::ostringstream os;
    os << "    {\n";
    os << "      \"label\": \"" << JsonWriter::escape(entry.label)
       << "\",\n";
    os << "      \"commit\": \"" << JsonWriter::escape(entry.commit)
       << "\",\n";
    os << "      \"grid_points\": " << entry.gridPoints << ",\n";
    os << "      \"iterations\": " << entry.iterations << ",\n";
    os << "      \"hardware_threads\": " << entry.hardwareThreads << ",\n";
    os << "      \"overheads_pct\": { \"critpath_recording\": "
       << num(entry.critpathRecordingPct)
       << ", \"tracing\": " << num(entry.tracingPct) << " },\n";
    os << "      \"measurements\": [\n";
    for (std::size_t i = 0; i < entry.measurements.size(); ++i) {
        const BenchMeasurement &m = entry.measurements[i];
        os << "        {\n";
        os << "          \"workers\": " << m.workers << ",\n";
        os << "          \"repetitions\": " << m.repetitions << ",\n";
        os << "          \"wall_ms\": " << num(m.wallMs) << ",\n";
        os << "          \"points_per_sec\": " << num(m.pointsPerSec)
           << ",\n";
        if (m.scalingEfficiency >= 0.0) {
            os << "          \"scaling_efficiency\": "
               << num(m.scalingEfficiency) << ",\n";
        }
        os << "          \"p50_host_ms_per_point\": "
           << num(m.p50HostMsPerPoint) << ",\n";
        os << "          \"p95_host_ms_per_point\": "
           << num(m.p95HostMsPerPoint) << "\n";
        os << "        }" << (i + 1 < entry.measurements.size() ? "," : "")
           << "\n";
    }
    os << "      ]\n";
    os << "    }";
    return os.str();
}

/**
 * The number after `"key": ` in text[from, to), or nothing when the key
 * is absent there. Keys cannot match inside string values: the writer
 * escapes every quote in them.
 */
std::optional<double>
findNumber(const std::string &text, const std::string &key,
           std::size_t from, std::size_t to)
{
    const std::string quoted = "\"" + key + "\": ";
    const std::size_t at = text.find(quoted, from);
    if (at == std::string::npos || at >= to)
        return std::nullopt;
    const char *begin = text.c_str() + at + quoted.size();
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin)
        LERGAN_FATAL("bench-json: \"", key, "\" is not a number");
    return value;
}

double
requireNumber(const std::string &text, const std::string &key,
              std::size_t from, std::size_t to)
{
    const std::optional<double> value = findNumber(text, key, from, to);
    if (!value)
        LERGAN_FATAL("bench-json: newest entry has no \"", key, "\"");
    return *value;
}

} // namespace

Runner::Runner(std::string title, std::string paper_claim)
    : title_(std::move(title)), paperClaim_(std::move(paper_claim))
{
}

void
Runner::parse(int argc, char **argv, const std::string &program_doc)
{
    args_.addOption("threads", "worker threads (0 = hardware threads)",
                    "0");
    Observability::addOptions(args_);
    args_.parse(argc, argv, program_doc);
    obs_ = std::make_unique<Observability>(args_);
    banner(title_, paperClaim_);
}

Observability &
Runner::obs()
{
    LERGAN_ASSERT(obs_ != nullptr, "Runner::parse() not called");
    return *obs_;
}

int
Runner::threads() const
{
    return args_.getInt("threads");
}

std::vector<SweepResult>
Runner::runSweep(ExperimentSweep &sweep, int iterations)
{
    if (obs().registry())
        sweep.withTelemetry(obs().registry());
    if (obs().recorder())
        sweep.withTracing(obs().recorder());

    RunOptions options;
    options.threads = threads();
    options.iterations = iterations;
    options.onProgress = obs().progress();
    // The anomaly report ranks points by host time, so the traced run
    // needs the per-point telemetry it is ranked by.
    options.pointTelemetry = obs().anomaliesWanted();
    auto results = sweep.run(options);
    obs().reportSweep(results);
    return results;
}

void
Runner::finish()
{
    obs().finish();
}

const SweepResult &
resultOf(const std::vector<SweepResult> &results,
         const std::string &benchmark, const std::string &config)
{
    const auto it = std::find_if(
        results.begin(), results.end(), [&](const SweepResult &r) {
            return r.benchmark == benchmark && r.configLabel == config;
        });
    if (it == results.end())
        LERGAN_FATAL("no sweep point ", benchmark, "/", config);
    if (it->failed)
        LERGAN_FATAL("sweep point ", benchmark, "/", config,
                     " failed: ", it->error);
    return *it;
}

AbOverhead
abOverhead(const std::function<void()> &off,
           const std::function<void()> &on)
{
    off(); // warm-up both sides before timing
    on();
    // Per-pair ratios: host-frequency drift hits the off and on halves
    // of one back-to-back pair equally, so pairwise ratios are far more
    // stable than a ratio of independent minima; the median then
    // rejects outlier pairs in either direction.
    std::vector<double> overheads, deltas;
    for (int pair = 0; pair < 15; ++pair) {
        PerfTimer timer;
        off();
        const double offMs = timer.elapsedMs();
        timer.restart();
        on();
        const double onMs = timer.elapsedMs();
        if (offMs > 0.0)
            overheads.push_back(100.0 * (onMs - offMs) / offMs);
        deltas.push_back(onMs - offMs);
    }
    return {percentile(overheads, 0.5), percentile(deltas, 0.5)};
}

std::vector<int>
parseWorkerCounts(const std::string &list)
{
    std::vector<int> counts;
    for (const std::string &item : split(list, ',')) {
        // Six digits bound the value well inside int.
        const bool digits =
            !item.empty() && item.size() <= 6 &&
            std::all_of(item.begin(), item.end(), [](unsigned char c) {
                return std::isdigit(c) != 0;
            });
        if (!digits)
            LERGAN_FATAL("--bench-workers expects comma-separated worker "
                         "counts (0 = hardware threads), got '",
                         list, "'");
        int workers = std::stoi(item);
        if (workers == 0)
            workers = static_cast<int>(defaultThreadCount());
        if (std::find(counts.begin(), counts.end(), workers) ==
            counts.end())
            counts.push_back(workers);
    }
    return counts;
}

std::vector<BenchMeasurement>
measureSweep(ExperimentSweep &sweep, int iterations,
             const std::vector<int> &workers, int repeats)
{
    std::vector<BenchMeasurement> measurements;
    for (int count : workers) {
        RunOptions options;
        options.threads = count;
        options.iterations = iterations;
        options.pointTelemetry = true;

        sweep.run(options); // warm-up: caches hot, allocators settled

        std::vector<double> pointMs;
        PerfTimer timer;
        for (int rep = 0; rep < repeats; ++rep) {
            const auto results = sweep.run(options);
            for (const SweepResult &result : results)
                pointMs.push_back(result.telemetry.hostMs);
        }
        const double wallMs = timer.elapsedMs();

        BenchMeasurement m;
        m.workers = count;
        m.repetitions = repeats;
        m.wallMs = wallMs;
        m.pointsPerSec =
            wallMs > 0.0 ? static_cast<double>(pointMs.size()) /
                               (wallMs / 1e3)
                         : 0.0;
        m.p50HostMsPerPoint = percentile(pointMs, 0.5);
        m.p95HostMsPerPoint = percentile(pointMs, 0.95);
        measurements.push_back(m);

        std::cerr << "bench: workers=" << count << " "
                  << num(m.pointsPerSec) << " points/sec (p50 "
                  << num(m.p50HostMsPerPoint) << " ms/point, p95 "
                  << num(m.p95HostMsPerPoint) << " ms/point)\n";
    }

    const auto one = std::find_if(
        measurements.begin(), measurements.end(),
        [](const BenchMeasurement &m) { return m.workers == 1; });
    if (one == measurements.end() || one->pointsPerSec <= 0.0)
        return measurements; // no 1-worker reference in this run
    // Normalize by the cores actually available: W workers on an
    // H-core machine can at best run min(W, H) points concurrently, so
    // ideal is 1.0 on every machine and oversubscribed counts are not
    // penalized for the cores they do not have.
    const double oneRate = one->pointsPerSec;
    const double hw = static_cast<double>(defaultThreadCount());
    for (BenchMeasurement &m : measurements)
        m.scalingEfficiency =
            m.pointsPerSec /
            (oneRate * std::min(static_cast<double>(m.workers), hw));
    return measurements;
}

void
writeBenchJson(const std::string &path, const BenchEntry &entry,
               bool append)
{
    std::string content;
    if (append) {
        content = readFile(path);
        if (content.find(kSchemaLine) == std::string::npos)
            LERGAN_FATAL("--bench-append: '", path,
                         "' is not a lergan-bench/3 file");
        // The writer's own tail is the splice anchor; anything else
        // means the file was not produced (or was edited) by us.
        const std::string tail = "\n  ]\n}";
        const std::size_t pos = content.rfind(tail);
        if (pos == std::string::npos)
            LERGAN_FATAL("--bench-append: '", path,
                         "' does not end with a bench-json entries "
                         "array");
        content.insert(pos, ",\n" + formatEntry(entry));
    } else {
        content = "{\n  " + kSchemaLine +
                  ",\n  \"bench\": \"fig19\",\n  \"entries\": [\n" +
                  formatEntry(entry) + "\n  ]\n}\n";
    }

    std::string error;
    if (!isValidJson(content, &error))
        LERGAN_FATAL("bench-json writer produced invalid JSON for '",
                     path, "': ", error);

    std::ofstream out(path);
    if (!out)
        LERGAN_FATAL("cannot write bench-json file '", path, "'");
    out << content;
}

BenchEntry
readNewestBenchEntry(const std::string &path)
{
    const std::string text = readFile(path);
    if (text.find(kSchemaLine) == std::string::npos)
        LERGAN_FATAL("bench-json: '", path,
                     "' is not a lergan-bench/3 file");
    // Entries are appended, so the newest one runs from the last label
    // to the end of the file.
    const std::size_t begin = text.rfind("\"label\": ");
    const std::size_t list =
        begin == std::string::npos ? std::string::npos
                                   : text.find("\"measurements\": ", begin);
    if (list == std::string::npos)
        LERGAN_FATAL("bench-json: '", path, "' has no complete entry");

    BenchEntry entry;
    entry.critpathRecordingPct =
        requireNumber(text, "critpath_recording", begin, list);
    entry.tracingPct = requireNumber(text, "tracing", begin, list);
    const std::string workersKey = "\"workers\": ";
    for (std::size_t at = text.find(workersKey, list);
         at != std::string::npos;) {
        const std::size_t next = text.find(workersKey, at + 1);
        const std::size_t stop = next == std::string::npos ? text.size()
                                                           : next;
        const double workers = requireNumber(text, "workers", at, stop);
        if (!(workers >= 1.0 && workers <= INT_MAX) ||
            workers != std::floor(workers))
            LERGAN_FATAL("bench-json: bad worker count in '", path, "'");
        BenchMeasurement m;
        m.workers = static_cast<int>(workers);
        m.pointsPerSec = requireNumber(text, "points_per_sec", at, stop);
        m.scalingEfficiency =
            findNumber(text, "scaling_efficiency", at, stop)
                .value_or(-1.0);
        entry.measurements.push_back(m);
        at = next;
    }
    return entry;
}

std::vector<GuardVerdict>
guardVerdicts(const BenchEntry &committed, const BenchEntry &measured)
{
    const auto byWorkers = [](const BenchEntry &entry,
                              int workers) -> const BenchMeasurement * {
        for (const BenchMeasurement &m : entry.measurements)
            if (m.workers == workers)
                return &m;
        return nullptr;
    };
    const auto verdict = [](const std::string &what, double value,
                            double baseline, const char *unit,
                            const char *bound, double limit, bool ok) {
        return GuardVerdict{"perf guard: " + what + " " + num(value) +
                                unit + " vs committed baseline " +
                                num(baseline) + unit + " (" + bound +
                                " " + num(limit) + unit +
                                "): " + (ok ? "ok" : "REGRESSION"),
                            ok};
    };
    std::vector<GuardVerdict> verdicts;

    // Throughput: the 1-worker rate is the least scheduler-noisy one.
    const BenchMeasurement *base = byWorkers(committed, 1);
    if (!base || base->pointsPerSec <= 0.0)
        LERGAN_FATAL("--bench-check: the newest entry has no 1-worker "
                     "points_per_sec");
    const BenchMeasurement *one = byWorkers(measured, 1);
    if (!one && !measured.measurements.empty())
        one = &measured.measurements.front();
    if (one) {
        const double floor = base->pointsPerSec * 0.8;
        verdicts.push_back(verdict(
            std::to_string(one->workers) + "-worker points/sec",
            one->pointsPerSec, base->pointsPerSec, "", "floor", floor,
            one->pointsPerSec >= floor));
    }

    // Scaling: a contention regression shows up here even when
    // 1-worker throughput is intact.
    for (const BenchMeasurement &m : measured.measurements) {
        const BenchMeasurement *ref = byWorkers(committed, m.workers);
        if (m.workers == 1 || m.scalingEfficiency < 0.0 || !ref ||
            ref->scalingEfficiency <= 0.0)
            continue;
        const double floor = ref->scalingEfficiency * 0.8;
        verdicts.push_back(verdict(
            std::to_string(m.workers) + "-worker scaling efficiency",
            m.scalingEfficiency, ref->scalingEfficiency, "", "floor",
            floor, m.scalingEfficiency >= floor));
    }

    // Recording costs a meaningful relative share of a ~80 ns/task
    // loop, so the guard is on the ratio: 4 points absorb host noise
    // while a recording-path regression shows up as tens of points.
    // The ratio also moves when only the unrecorded run gets faster,
    // so the line names the absolute cost per task too.
    const double recordingCeiling = committed.critpathRecordingPct + 4.0;
    verdicts.push_back(verdict(
        "critpath recording overhead", measured.critpathRecordingPct,
        committed.critpathRecordingPct, "%", "ceiling", recordingCeiling,
        measured.critpathRecordingPct <= recordingCeiling));
    verdicts.back().line += "; recorded minus unrecorded " +
                            num(measured.critpathRecordingNsPerTask) +
                            " ns/task";

    // Tracing's budget is 3% host-ms/point; the committed number is
    // typically ~0, so 2 points over it would be inside host noise.
    const double tracingCeiling =
        std::max(3.0, committed.tracingPct + 2.0);
    verdicts.push_back(verdict("tracing overhead", measured.tracingPct,
                               committed.tracingPct, "%", "ceiling",
                               tracingCeiling,
                               measured.tracingPct <= tracingCeiling));
    return verdicts;
}

} // namespace bench
} // namespace lergan
