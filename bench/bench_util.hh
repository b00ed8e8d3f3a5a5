/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Each bench regenerates one table or figure of the paper's Sec. VI:
 * it simulates the configurations that figure compares and prints the
 * same rows/series. EXPERIMENTS.md records paper-vs-measured values.
 */

#ifndef LERGAN_BENCH_BENCH_UTIL_HH
#define LERGAN_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fpga_gan.hh"
#include "baselines/gpu.hh"
#include "baselines/prime.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/anomaly.hh"
#include "core/api.hh"
#include "exec/engine.hh"
#include "telemetry/tracing.hh"

namespace lergan {
namespace bench {

/** The evaluation uses ten timed iterations (Sec. VI-C). */
constexpr int kIterations = 10;

/** Configuration with every axis explicit. */
inline AcceleratorConfig
makeConfig(Connection conn, ReshapeMode reshape, bool duplicate,
           ReplicaDegree degree = ReplicaDegree::Low)
{
    AcceleratorConfig config;
    config.connection = conn;
    config.reshape = reshape;
    config.duplicate = duplicate;
    config.degree = degree;
    return config;
}

/** LerGAN-low granted only the PRIME baseline's CArray space. */
inline AcceleratorConfig
lerGanLowNs(const GanModel &model)
{
    const CompiledGan prime_map =
        compileGan(model, AcceleratorConfig::prime());
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = prime_map.crossbarsUsed;
    return config;
}

/** PRIME granted the same CArray space as a LerGAN mapping. */
inline AcceleratorConfig
primeNs(const GanModel &model, ReplicaDegree lergan_degree)
{
    const CompiledGan lergan_map =
        compileGan(model, AcceleratorConfig::lerGan(lergan_degree));
    AcceleratorConfig config = AcceleratorConfig::prime();
    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = lergan_map.crossbarsUsed;
    return config;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_claim)
{
    std::cout << "=== " << what << " ===\n";
    std::cout << "paper: " << paper_claim << "\n\n";
}

/**
 * Shared observability plumbing of the bench binaries: the --progress,
 * --metrics, --metrics-format, --self-profile and --trace-* options,
 * the metrics registry and flight recorder they populate, and the
 * end-of-run export. Everything is off by default, so the figure tables
 * on stdout (the golden-diffed output) are untouched unless a flag asks
 * for more.
 *
 * Usage:
 *   ArgParser args;
 *   Observability::addOptions(args);
 *   args.parse(argc, argv, "...");
 *   Observability obs(args);
 *   options.onProgress = obs.progress();   // sweeps
 *   sweep.withTelemetry(obs.registry());   // when obs.registry()
 *   ...
 *   obs.finish();                          // writes --metrics file
 */
class Observability
{
  public:
    /** Largest --trace-capacity accepted (spans per worker lane). */
    static constexpr int kMaxTraceCapacity = 65536;

    /** Declare the shared options on @p args (call before parse). */
    static void
    addOptions(ArgParser &args)
    {
        args.addOption("progress", "report per-point progress on stderr",
                       "", /*is_flag=*/true);
        args.addOption("metrics",
                       "write a metrics snapshot to this file (- for "
                       "stdout)");
        args.addOption("metrics-format",
                       "snapshot format: prom, json or csv", "prom");
        args.addOption("self-profile",
                       "record lifecycle spans and print each span "
                       "name's self time on stderr",
                       "", /*is_flag=*/true);
        args.addOption("trace-spans",
                       "record lifecycle spans and write the NDJSON "
                       "span event log to this file (- for stdout)");
        args.addOption("trace-anomalies",
                       "record lifecycle spans and report slow/failed "
                       "points on stderr (value = host-ms quantile)",
                       "0.9");
        args.addOption("trace-capacity",
                       "flight-recorder ring capacity per worker lane "
                       "(spans kept for post-mortem, 1 to 65536)",
                       "4096");
    }

    explicit Observability(const ArgParser &args)
        : metricsPath_(args.get("metrics")),
          metricsFormat_(args.get("metrics-format")),
          spansPath_(args.get("trace-spans")),
          progressWanted_(args.getFlag("progress")),
          selfProfile_(args.getFlag("self-profile")),
          anomaliesWanted_(args.given("trace-anomalies"))
    {
        if (metricsFormat_ != "prom" && metricsFormat_ != "json" &&
            metricsFormat_ != "csv")
            LERGAN_FATAL("unknown --metrics-format '", metricsFormat_,
                         "' (expected prom, json or csv)");
        if (!metricsPath_.empty())
            registry_ = std::make_shared<MetricsRegistry>();
        // Rings are allocated up front, so an absurd capacity would
        // abort in the allocator instead of failing here.
        const int capacity = args.getInt("trace-capacity");
        if (capacity < 1 || capacity > kMaxTraceCapacity)
            LERGAN_FATAL("--trace-capacity must be in [1, ",
                         kMaxTraceCapacity, "], got ", capacity);
        if (!spansPath_.empty() || anomaliesWanted_ || selfProfile_) {
            recorder_ = std::make_shared<FlightRecorder>(
                static_cast<std::size_t>(capacity));
        }
        if (anomaliesWanted_) {
            anomalyOptions_.quantile = args.getDouble("trace-anomalies");
            if (!(anomalyOptions_.quantile > 0.0 &&
                  anomalyOptions_.quantile <= 1.0))
                LERGAN_FATAL("--trace-anomalies quantile must be in "
                             "(0,1], got ",
                             args.get("trace-anomalies"));
        }
    }

    /** The registry to attach via withTelemetry() (null = no --metrics). */
    const std::shared_ptr<MetricsRegistry> &registry() const
    {
        return registry_;
    }

    /**
     * The flight recorder to attach via withTracing() (null unless
     * --trace-spans, --trace-anomalies or --self-profile was given).
     */
    const std::shared_ptr<FlightRecorder> &recorder() const
    {
        return recorder_;
    }

    /** True when --trace-anomalies asked for the slow-point report
     *  (the sweep then needs RunOptions::pointTelemetry). */
    bool anomaliesWanted() const { return anomaliesWanted_; }

    /**
     * Post-run reporting of a traced sweep: the --trace-anomalies
     * report on stderr. Call once, with the results of the sweep the
     * recorder observed. No-op when tracing is off.
     */
    void
    reportSweep(const std::vector<SweepResult> &results)
    {
        if (recorder_ && anomaliesWanted_)
            writeAnomalyReport(std::cerr, results, *recorder_,
                               anomalyOptions_);
    }

    /**
     * Progress hook for RunOptions::onProgress (null unless --progress).
     * The engine serializes invocations; "\r" keeps it to one line.
     */
    ProgressFn
    progress() const
    {
        if (!progressWanted_)
            return {};
        return [](std::size_t done, std::size_t total) {
            std::cerr << '\r' << "[" << done << '/' << total << "]"
                      << (done == total ? "\n" : "") << std::flush;
        };
    }

    /**
     * Export everything the flags asked for: the --metrics snapshot,
     * then — so the export's own span makes it into both — the
     * --trace-spans NDJSON event log and the --self-profile table of
     * span self times on stderr.
     */
    void
    finish()
    {
        if (recorder_) {
            // The export work is a traced unit too: one root "export"
            // span on the main ring, closed before the span log is
            // written out.
            MainLaneBinding bind(*recorder_);
            Span span(recorder_->allocateTraceId(), "export");
            exportMetrics();
        } else {
            exportMetrics();
        }
        exportSpans();
        if (selfProfile_) {
            std::cerr << "host profile (span self time):\n";
            printSpanSelfTimes(std::cerr, recorder_->collect());
            warnOverwrites("self-profile");
        }
    }

  private:
    void
    exportMetrics()
    {
        if (!registry_)
            return;
        const MetricsSnapshot snapshot = registry_->snapshot();
        const auto write = [&](std::ostream &os) {
            if (metricsFormat_ == "json")
                snapshot.writeJson(os);
            else if (metricsFormat_ == "csv")
                snapshot.writeCsv(os);
            else
                snapshot.writePrometheus(os);
        };
        if (metricsPath_ == "-") {
            write(std::cout);
            return;
        }
        std::ofstream out(metricsPath_);
        if (!out)
            LERGAN_FATAL("cannot write metrics file '", metricsPath_,
                         "'");
        write(out);
    }

    void
    exportSpans()
    {
        if (!recorder_ || spansPath_.empty())
            return;
        const std::vector<SpanEvent> events = recorder_->collect();
        if (spansPath_ == "-") {
            writeSpanNdjson(std::cout, events);
        } else {
            std::ofstream out(spansPath_);
            if (!out)
                LERGAN_FATAL("cannot write span log '", spansPath_, "'");
            writeSpanNdjson(out, events);
        }
        warnOverwrites("trace-spans");
    }

    /** Note on stderr that the rings dropped spans, if they did. */
    void
    warnOverwrites(const char *what) const
    {
        if (recorder_->dropped() > 0) {
            std::cerr << what << ": " << recorder_->dropped()
                      << " spans overwritten (ring capacity "
                      << recorder_->laneCapacity()
                      << "/lane) — oldest traces are partial\n";
        }
    }

    std::string metricsPath_;
    std::string metricsFormat_;
    std::string spansPath_;
    bool progressWanted_ = false;
    bool selfProfile_ = false;
    bool anomaliesWanted_ = false;
    AnomalyOptions anomalyOptions_;
    std::shared_ptr<MetricsRegistry> registry_;
    std::shared_ptr<FlightRecorder> recorder_;
};

/**
 * Wall-clock stopwatch for bench-side performance measurement.
 *
 * Times host phases of a bench run (the simulator's own speed, never
 * the simulated hardware's): the fig19 perf guard's measurements
 * (bench/runner.hh) and every bench's wall-clock line.
 */
class PerfTimer
{
  public:
    PerfTimer() : start_(clock::now()) {}

    /** Restart the stopwatch. */
    void restart() { start_ = clock::now(); }

    /** Milliseconds elapsed since construction or the last restart(). */
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(clock::now() -
                                                         start_)
            .count();
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/** Geometric-style arithmetic mean helper used in the summary rows. */
class Mean
{
  public:
    void add(double value)
    {
        sum_ += value;
        ++count_;
    }
    double value() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  private:
    double sum_ = 0.0;
    int count_ = 0;
};

} // namespace bench
} // namespace lergan

#endif // LERGAN_BENCH_BENCH_UTIL_HH
