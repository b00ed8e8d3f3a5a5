/**
 * @file
 * Unified driver for the figure/table bench binaries, plus the pieces of
 * the fig19 host-performance guard.
 *
 * Every bench used to copy-paste the same plumbing: an ArgParser, the
 * shared Observability options, a --threads knob for sweep-based grids
 * and the final export calls. bench::Runner owns all of that, and
 * runSweep() is how every figure bench simulates, so --threads,
 * --progress, --metrics, --trace-* and --self-profile mean the same
 * thing in each of them.
 *
 * Usage (figure bench):
 * @code
 *   bench::Runner runner("Fig. 19: ...", "paper claim ...");
 *   runner.args().addOption("trace", "...");     // bench-specific flags
 *   runner.parse(argc, argv, "Fig. 19 reproduction");
 *   ExperimentSweep sweep;  ...build grid...
 *   const auto results = runner.runSweep(sweep, kIterations);
 *   ...print tables from resultOf(results, benchmark, config)...
 *   runner.finish();
 * @endcode
 *
 * The perf guard belongs to fig19 alone, the paper's headline grid
 * (bench/fig19_lergan_vs_prime.cc declares its --bench-* options).
 * --bench-json FILE writes (or, with --bench-append, appends an entry
 * to) the BENCH_fig19.json performance trajectory:
 *
 *   {
 *     "schema": "lergan-bench/3",
 *     "bench": "fig19",
 *     "entries": [
 *       { "label": "scaling", "commit": "<sha>", "grid_points": 48,
 *         "iterations": 10, "hardware_threads": 8,
 *         "overheads_pct": { "critpath_recording": ..., "tracing": ... },
 *         "measurements": [
 *           { "workers": 1, "repetitions": 3, "wall_ms": ...,
 *             "points_per_sec": ..., "scaling_efficiency": ...,
 *             "p50_host_ms_per_point": ...,
 *             "p95_host_ms_per_point": ... },
 *           ... ] },
 *       ... ]
 *   }
 *
 * Scaling efficiency is points/sec at W workers divided by (1-worker
 * points/sec × min(W, hardware_threads)) — 1.0 means the curve is ideal
 * for the cores actually available. The two overheads are warm A/B
 * on-costs measured by abOverhead(): critical-path recording
 * (ExecRecord on vs off over the grid templates) and span tracing
 * (FlightRecorder on vs off over the warm grid). Schema /3 added
 * "overheads_pct"; older entries in the file lack it and are never read.
 * Some committed entries also carry a "host_phases_ms" object from an
 * earlier writer, which the reader ignores.
 * Host wall-clock numbers are facts about the machine that ran the
 * bench; they are never part of golden comparisons.
 *
 * --bench-check FILE re-measures and fails the process (exit 1) when any
 * of guardVerdicts()' four checks against the file's newest entry says
 * REGRESSION. scripts/check.sh runs it at 1 and 4 workers (skippable via
 * LERGAN_SKIP_PERF_GUARD=1 for slow or noisy machines).
 */

#ifndef LERGAN_BENCH_RUNNER_HH
#define LERGAN_BENCH_RUNNER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/sweep.hh"

namespace lergan {
namespace bench {

/** Unified bench driver: argument parsing and observability. */
class Runner
{
  public:
    /**
     * @param title       banner headline.
     * @param paper_claim banner "paper:" line.
     */
    Runner(std::string title, std::string paper_claim);

    /** Declare bench-specific options here before parse(). */
    ArgParser &args() { return args_; }

    /**
     * Declare the shared options (threads, observability), parse argv,
     * construct the Observability plumbing and print the banner — the
     * exact sequence every bench main used to open with.
     */
    void parse(int argc, char **argv, const std::string &program_doc);

    /** The shared observability plumbing (valid after parse()). */
    Observability &obs();

    /** --threads value (0 = hardware concurrency). */
    int threads() const;

    /**
     * Run @p sweep once under the shared flags (--threads, --metrics
     * telemetry, --progress, tracing) and return the results for
     * printing.
     */
    std::vector<SweepResult> runSweep(ExperimentSweep &sweep,
                                      int iterations);

    /** Export the Observability (--metrics / --self-profile / spans)
     *  output; bench mains end with it. */
    void finish();

  private:
    std::string title_;
    std::string paperClaim_;
    ArgParser args_;
    std::unique_ptr<Observability> obs_;
};

/**
 * The result of the (@p benchmark, @p config) point in @p results — the
 * one lookup the figure benches read their sweeps with. Fatal when the
 * point is absent or failed.
 */
const SweepResult &resultOf(const std::vector<SweepResult> &results,
                            const std::string &benchmark,
                            const std::string &config);

/** One timed configuration (worker count) of the fig19 grid. */
struct BenchMeasurement {
    int workers = 1;
    int repetitions = 0;
    double wallMs = 0.0;               ///< total wall time of the reps
    double pointsPerSec = 0.0;
    /**
     * points/sec ÷ (1-worker points/sec × min(workers, hardware
     * threads)); 1.0 = ideal scaling for the available cores. Negative
     * when the run had no 1-worker reference to normalize against
     * (then omitted from the JSON).
     */
    double scalingEfficiency = -1.0;
    double p50HostMsPerPoint = 0.0;
    double p95HostMsPerPoint = 0.0;
};

/** One entry of BENCH_fig19.json (schema lergan-bench/3). */
struct BenchEntry {
    std::string label = "current";
    std::string commit = "unknown";
    std::size_t gridPoints = 0;
    int iterations = kIterations;
    unsigned hardwareThreads = 0;
    /** Warm A/B on-cost of critical-path recording, in percent. */
    double critpathRecordingPct = 0.0;
    /** The same on-cost per executed task, in ns: recorded minus
     *  unrecorded. Measured only; the file does not carry it. */
    double critpathRecordingNsPerTask = 0.0;
    /** Warm A/B on-cost of span tracing, in percent. */
    double tracingPct = 0.0;
    std::vector<BenchMeasurement> measurements;
};

/** An A/B on-cost: medians over the pairs of one A/B run. */
struct AbOverhead {
    double pct = 0.0; ///< 100 × (on − off) / off
    double ms = 0.0;  ///< on − off, in host ms
};

/**
 * The one A/B routine: run @p off and @p on once each to warm up, then
 * 15 back-to-back off/on pairs, and return the median pairwise on-cost,
 * relative and absolute.
 */
AbOverhead abOverhead(const std::function<void()> &off,
                      const std::function<void()> &on);

/**
 * Parse a --bench-workers list: comma-separated positive worker counts,
 * 0 meaning the hardware thread count; duplicates collapse. Fatal on
 * anything else.
 */
std::vector<int> parseWorkerCounts(const std::string &list);

/**
 * Time the (warm) @p sweep at each worker count: one warm-up run, then
 * @p repeats timed runs with per-point host telemetry. Scaling
 * efficiencies are filled in when @p workers includes 1. The caller
 * detaches telemetry and tracing first, so the product-default fast path
 * is the measured one.
 */
std::vector<BenchMeasurement> measureSweep(ExperimentSweep &sweep,
                                           int iterations,
                                           const std::vector<int> &workers,
                                           int repeats);

/**
 * Write BENCH_fig19.json at @p path with @p entry as its only entry, or
 * with @p append splice @p entry after the entries of the existing
 * schema/3 file there (fatal when the file is another schema or does not
 * end with the writer's own "\n  ]\n}" tail).
 */
void writeBenchJson(const std::string &path, const BenchEntry &entry,
                    bool append);

/**
 * Read the newest (last) entry of the schema/3 file at @p path: the two
 * overheads and, per measurement, workers, points/sec and scaling
 * efficiency (negative when absent) — the numbers guardVerdicts()
 * compares. Nothing is taken from older entries. Fatal when the file is
 * unreadable, another schema, or lacks a field.
 */
BenchEntry readNewestBenchEntry(const std::string &path);

/** One line of the --bench-check report. */
struct GuardVerdict {
    std::string line;
    bool ok = true;
};

/**
 * The perf guard's four verdicts of @p measured against @p committed:
 *  - 1-worker points/sec ≥ 80% of the committed 1-worker rate (the first
 *    measurement stands in when none has 1 worker; fatal when the
 *    committed entry has none);
 *  - every multi-worker scaling efficiency ≥ 80% of the committed one
 *    for that worker count (skipped when the committed entry lacks it);
 *  - critical-path recording overhead ≤ committed + 4 points;
 *  - tracing overhead ≤ max(3%, committed + 2 points).
 */
std::vector<GuardVerdict> guardVerdicts(const BenchEntry &committed,
                                        const BenchEntry &measured);

} // namespace bench
} // namespace lergan

#endif // LERGAN_BENCH_RUNNER_HH
