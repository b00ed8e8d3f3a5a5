/**
 * @file
 * The two kinds of benchmark run and what they report.
 *
 * An untimed set-up, then closed-loop passes for the run's time budget:
 * the timed run reports the end-to-end metrics, the traced run the
 * per-layer ones. Both run every pass through the correctness gate.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench {

/** A metric the benchmark reports. */
struct MetricDef {
    const char *name;
    const char *unit;
};

/** End-to-end metrics (timed run), in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (traced run), in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** N of the N-worker passes: min(4, hardware threads). */
    int workers = 1;
    std::string referenceDir = "perfbench/reference";
    /** Where the traced run writes its span log. */
    std::string outDir = ".bench_build/perfbench";
};

struct RunOutcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name; the MetricDef tables give their order. */
    std::map<std::string, double> values;
};

/**
 * The correctness gate: every pass's points against the workload's
 * reference, and every pass's export byte for byte against the first
 * one (so 1-worker and N-worker exports must match).
 */
class Gate
{
  public:
    explicit Gate(Reference reference) : reference_(std::move(reference)) {}

    /** Check one pass; @p exported is its telemetry-free export. */
    void check(const std::vector<lergan::SweepResult> &results,
               const std::string &exported);

    /** Check points that have no export (per-layer probes). */
    void checkPoints(const std::vector<lergan::SweepResult> &results);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    /** Failures named on stderr before the gate goes quiet. */
    static constexpr std::uint64_t kNamedFailures = 20;

    /** Where to name the next failure (null once enough are named). */
    std::ostream *why() const;

    Reference reference_;
    std::string firstExport_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Median (of a copy); 0 for an empty sample. */
double median(std::vector<double> values);

/** Nearest-rank quantile @p q in (0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Timed run: end-to-end metrics of @p workload. */
RunOutcome runTimed(const WorkloadSpec &spec, const RunConfig &config);

/** Traced run: per-layer metrics of @p workload. */
RunOutcome runTraced(const WorkloadSpec &spec, const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
