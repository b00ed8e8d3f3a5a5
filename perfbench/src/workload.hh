/**
 * @file
 * The benchmark's sweep workloads and their correctness gate.
 *
 * A workload owns its inputs (DSL strings), the ExperimentSweep built
 * from them and the reference results every pass is checked against.
 * Passes are a closed loop: the caller starts the next one when the
 * previous one has returned.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "designs.hh"

namespace perfbench {

/** Wall seconds since @p start. */
double secondsSince(std::chrono::steady_clock::time_point start);

/** Hand heap memory that is free again back to the system (glibc). */
void returnFreedMemory();

/** Training iterations simulated per point (paper Sec. VI-C). */
constexpr int kIterations = 10;

/** Designs generated per cold-designs pass (x4 configurations). */
constexpr int kColdDesigns = 24;

enum class Mode { Warm, Observed, Cold };

/** A named workload and why it is in the benchmark. */
struct WorkloadSpec {
    const char *name;
    Mode mode;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** The spec called @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Simulated outcome of one point that the gate compares. */
struct PointDigest {
    std::uint64_t iterationPs = 0;
    std::map<std::string, double> energies;
};

/** Reference digests keyed by "benchmark|config". */
using Reference = std::map<std::string, PointDigest>;

/** The digest of one successful result. */
PointDigest digestOf(const lergan::SweepResult &result);

/** Key of a result in a Reference. */
std::string keyOf(const std::string &benchmark, const std::string &config);

/**
 * Points of @p results that fail the gate: failed points, points
 * missing from @p reference, and points whose makespan differs or whose
 * energies differ by more than 1e-9 relative. Each failing point is
 * named on @p why when given.
 */
std::size_t countMismatches(const std::vector<lergan::SweepResult> &results,
                            const Reference &reference,
                            std::ostream *why = nullptr);

/** Read / write a reference as TSV (benchmark, config, key, value). */
Reference readReference(const std::string &path);
void writeReference(const std::string &path, const Reference &reference);

/** JSON + CSV export of @p results with host telemetry cleared. */
std::string exportOf(std::vector<lergan::SweepResult> &results);

/** Compile- and template-cache lookups of one pass. */
struct CacheCounts {
    std::uint64_t compileHits = 0;
    std::uint64_t compileMisses = 0;
    std::uint64_t templateHits = 0;
    std::uint64_t templateMisses = 0;

    CacheCounts &operator+=(const CacheCounts &other);
};

/** The outcome of one pass. */
struct PassOutput {
    std::vector<lergan::SweepResult> results;
    /** Cache lookups the pass made on its sweep. */
    CacheCounts caches;
    /** Export of the pass: cold-designs exports inside the pass. */
    std::string exported;
    /** Per-point host ms (RunOptions::pointTelemetry), result order. */
    std::vector<double> hostMs;
    /** Wall time of the pass. */
    double seconds = 0.0;
};

class Workload
{
  public:
    Workload(const WorkloadSpec &spec, std::uint64_t seed);

    /**
     * Generate inputs, build the sweep and run the untimed first pass
     * that fills the compile and template caches. Idempotent: a second
     * call starts over from fresh inputs and a fresh sweep. Returns the
     * cache lookups of that first pass.
     */
    CacheCounts setup();

    /**
     * Drop the sweep and the inputs, and hand the memory freed back to
     * the system, so that the next setup() starts as the first did.
     */
    void release();

    /** One closed-loop pass at @p threads workers. */
    PassOutput pass(int threads, bool point_telemetry);

    /** Points one pass simulates. */
    std::size_t pointsPerPass() const;

    const std::vector<Design> &designs() const { return designs_; }

    /** The (label, config) grid every model runs under. */
    static const std::vector<std::pair<std::string,
                                       lergan::AcceleratorConfig>> &
    gridConfigs();

    /** Explicit (model, label, config) points beyond the grid. */
    struct Extra {
        std::size_t model;
        std::string label;
        lergan::AcceleratorConfig config;
    };
    const std::vector<Extra> &extras() const { return extras_; }

    /** The persistent sweep of the Fig. 19 modes (null for cold). */
    lergan::ExperimentSweep *sweep() { return sweep_.get(); }

    /**
     * A fresh sweep over this workload's points with no observers
     * (models parsed from the DSL again when @p reparse).
     */
    std::unique_ptr<lergan::ExperimentSweep> freshSweep(bool reparse) const;

    /**
     * The reference the gate compares passes against: the committed
     * Fig. 19 reference from @p reference_dir, or, for generated
     * designs, an uncached single-threaded simulation of every point.
     */
    Reference reference(const std::string &reference_dir) const;

  private:
    void configure(lergan::ExperimentSweep &sweep) const;

    WorkloadSpec spec_;
    std::uint64_t seed_;
    std::vector<Design> designs_;
    std::vector<lergan::GanModel> models_;
    std::vector<Extra> extras_;
    std::unique_ptr<lergan::ExperimentSweep> sweep_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
