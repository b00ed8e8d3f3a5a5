/**
 * @file
 * Experiment sweeps: run a grid of (benchmark x configuration) points
 * and export the results for plotting.
 *
 * The figure benches print human-readable tables; this library is the
 * programmatic counterpart — downstream users compose their own
 * comparisons and get JSON/CSV out (core/sweep_io.hh).
 *
 * Points execute on worker lanes (RunOptions::threads) with the
 * compiled mapping and the iteration template of every (model, config)
 * pair cached across run() calls, under a key joined from the
 * fingerprints formatted when the model and the config were added. A
 * point whose template is cached builds nothing — no accelerator, no
 * machine, no fingerprint — and runs the template on its lane's
 * scratch. Results are always ordered benchmark-major regardless of
 * which worker finishes first, and a point that throws is reported as
 * a failed SweepResult instead of aborting the grid, so a 1-thread and
 * an N-thread run of the same grid export byte-identical JSON/CSV.
 */

#ifndef LERGAN_CORE_SWEEP_HH
#define LERGAN_CORE_SWEEP_HH

#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hh"
#include "core/accelerator.hh"
#include "exec/engine.hh"
#include "exec/model_cache.hh"
#include "faults/fault_stats.hh"

namespace lergan {

/** Host-side observations of one executed point (never goldened). */
struct PointTelemetry {
    /** False unless the sweep ran with RunOptions::pointTelemetry. */
    bool ran = false;
    /** Whether this point's compile was served from the cache. */
    bool cacheHit = false;
    /** Wall-clock time of the point body on its worker. */
    double hostMs = 0.0;
    /** False unless the sweep ran with a tracing recorder attached. */
    bool traced = false;
    /** Spans this point recorded into the flight recorder. */
    std::uint64_t spanCount = 0;
    /** Milliseconds the point waited before a lane claimed it. */
    double queueWaitMs = -1.0;
};

/** One executed experiment point. */
struct SweepResult {
    std::string benchmark;
    std::string configLabel;
    TrainingReport report;
    std::uint64_t crossbarsUsed = 0;
    std::uint64_t oversubscribed = 0;
    /** True when this point threw instead of producing a report. */
    bool failed = false;
    /** Exception message of a failed point. */
    std::string error;
    /**
     * Cross-layer invariant verdict of this point (audit.ran is false
     * unless the sweep was configured with auditWith). A failed audit
     * does not fail the point — it is surfaced here and in the JSON
     * export; an audit failure is a simulator bug, not a user error.
     */
    AuditVerdict audit;
    /**
     * Monte Carlo trial distributions (faults.ran() is false unless the
     * point came out of a FaultMonteCarlo run, faults/montecarlo.hh).
     */
    FaultSweepStats faults;
    /** Host-side point observations (RunOptions::pointTelemetry). */
    PointTelemetry telemetry;
    /**
     * Causal history of a failed point: the span tree the point left
     * in the flight recorder, rendered as text (empty unless the
     * sweep ran with withTracing and this point failed).
     */
    std::string traceDump;
};

/**
 * What a run observes besides its results. SimulationSession and
 * ExperimentSweep each hold one and set it through the same
 * auditWith/withTelemetry/withTracing/withCriticalPath builders.
 */
struct Instrumentation {
    /** Audit every point (off unless audit.enabled). */
    AuditOptions audit;
    /** Sim-time telemetry sink (null = off). */
    std::shared_ptr<MetricsRegistry> telemetry;
    /** Span flight recorder (null = off). */
    std::shared_ptr<FlightRecorder> recorder;
    /** Record every point's dependence graph into report.critpath. */
    bool critpath = false;
};

/** A point compiled and lowered to its iteration template. */
struct PreparedPoint {
    /** The point's model and config; the caller keeps them alive. */
    const GanModel *model = nullptr;
    const AcceleratorConfig *config = nullptr;
    std::shared_ptr<const CompiledGan> compiled;
    std::shared_ptr<const IterationTemplate> tmpl;
    /** Whether the compile was served from the cache. */
    bool cacheHit = false;
};

/**
 * @name The point pipeline
 * Every simulated point — a sweep point or a session run — goes through
 * these two steps; only the sweep's bound pruning sits between them.
 */
///@{
/**
 * Check @p config (std::invalid_argument when unusable), compile
 * @p model through @p cache under a "compile" span (validated once on
 * a miss, never re-validated on a hit) and fetch its iteration template
 * from @p templates under a "template" span. Both caches take @p key,
 * pairFingerprint(model, config). Only a template miss constructs a
 * LerGanAccelerator (and with it a Machine), to build the template.
 */
PreparedPoint preparePoint(const GanModel &model,
                           const AcceleratorConfig &config,
                           const std::string &key,
                           CompiledModelCache &cache,
                           MemoCache<IterationTemplate> &templates);

/**
 * Simulate @p point for @p iterations on @p scratch under a
 * "simulate" span (runIteration, then assembleReport), recorded into
 * report.critpath when @p instruments asks for the critical path, then
 * audited over the graph and the record under an "audit" span when
 * auditing is on. Fills report, crossbarsUsed, oversubscribed and audit
 * of the returned result. @p scratch must not be in use by a
 * concurrent run.
 */
SweepResult simulatePoint(const PreparedPoint &point, ExecScratch &scratch,
                          int iterations, const Instrumentation &instruments);
///@}

/** A grid of benchmarks x configurations (plus explicit extra points). */
class ExperimentSweep
{
  public:
    ExperimentSweep();

    /** Add a benchmark model to the grid. */
    ExperimentSweep &addBenchmark(const GanModel &model);

    /** Add a configuration (with a display label) to the grid. */
    ExperimentSweep &addConfig(const std::string &label,
                               const AcceleratorConfig &config);

    /**
     * Add one explicit (model, config) point outside the grid — for
     * per-benchmark configurations like the normalized-space variants,
     * whose crossbar budget depends on the model. Explicit points run
     * after the grid, in insertion order.
     */
    ExperimentSweep &addPoint(const GanModel &model,
                              const std::string &label,
                              const AcceleratorConfig &config);

    /**
     * Audit every point of every subsequent run(): each point records
     * its execution and its SweepResult::audit carries the verdict. No
     * extra simulation — the audited run is the measured run.
     */
    ExperimentSweep &auditWith(AuditOptions options);

    /**
     * Attach a metrics registry: every point of every subsequent run()
     * accumulates sim-time telemetry into it (same contract as
     * SimulationSession::withTelemetry — integer instruments only, so
     * totals are independent of worker count), plus compile-cache
     * gauges and the "host."-prefixed worker count after each run.
     * Pass null to detach.
     */
    ExperimentSweep &withTelemetry(
        std::shared_ptr<MetricsRegistry> registry =
            std::make_shared<MetricsRegistry>());

    /** The attached metrics registry (null when telemetry is off). */
    const std::shared_ptr<MetricsRegistry> &telemetry() const
    {
        return instruments_.telemetry;
    }

    /**
     * Attach a flight recorder: every point of every subsequent run()
     * executes under a root "point" span (trace id = point index + 1)
     * with compile/template/simulate/audit stage children recorded
     * into per-lane lock-free rings (telemetry/flight_recorder.hh).
     * The recorder keeps the newest laneCapacity() spans per lane;
     * read it after run() with collect()/collectTrace(), export with
     * writeSpanNdjson(), or summarize with writeAnomalyReport().
     * Pass null to detach.
     */
    ExperimentSweep &withTracing(
        std::shared_ptr<FlightRecorder> recorder =
            std::make_shared<FlightRecorder>());

    /** The attached flight recorder (null when tracing is off). */
    const std::shared_ptr<FlightRecorder> &recorder() const
    {
        return instruments_.recorder;
    }

    /**
     * Record every point's dependence graph: each successful
     * SweepResult's report.critpath carries the execution record, the
     * extracted critical path and the inputs of the what-if estimator
     * (critpath/whatif.hh). Recording never changes simulated results.
     */
    ExperimentSweep &withCriticalPath(bool enabled = true);

    /**
     * Bound-based pruning of comparison sweeps: the first addConfig'd
     * configuration is the per-benchmark baseline and always simulates
     * fully; every other grid point first computes analytic makespan
     * bounds (critpath/whatif.hh makespanBounds) and skips the event
     * simulation when the bracket already decides which side of the
     * baseline it lands on. Pruned points report the bound's
     * list-schedule estimate as their time (stats carry
     * "critpath.estimated" = 1; energies stay exact — they are
     * build-time facts), skip auditing and recording, and count into
     * the attached telemetry's "critpath.pruned" counter; fully
     * simulated points count into "critpath.simulated". Explicit
     * addPoint() points are never pruned. Off by default — the golden
     * figure grids always simulate every point exactly.
     */
    ExperimentSweep &withBoundPruning(bool enabled = true);

    /**
     * Simulate every point under @p options; results are ordered
     * benchmark-major (then explicit points in insertion order)
     * regardless of completion order. A throwing point yields a failed
     * SweepResult; the other points are unaffected.
     * options.iterations < 1 or options.threads < 0 throws
     * std::invalid_argument before any point runs.
     */
    std::vector<SweepResult> run(const RunOptions &options) const;

    /** Sequential convenience: run(RunOptions{1, iterations}). */
    std::vector<SweepResult> run(int iterations = 1) const;

    /** Total experiment points the next run() will execute. */
    std::size_t pointCount() const;

    /**
     * The compiled-model cache shared by every run() of this sweep
     * (exact hit/miss counters; a repeated run recompiles nothing).
     */
    CompiledModelCache &cache() const { return *cache_; }

    /**
     * The per-iteration DAG template cache shared by every run() of
     * this sweep, keyed by pairFingerprint like the compiled-model
     * cache: each (model, config) pair lowers its training iteration
     * to a task graph once, and every run of the pair replays it
     * without building an accelerator.
     */
    MemoCache<IterationTemplate> &templates() const { return *templates_; }

  private:
    /** A grid config with its display label and fingerprint. */
    struct GridConfig {
        std::string label;
        AcceleratorConfig config;
        std::string key;
    };
    struct ExplicitPoint {
        GanModel model;
        std::string label;
        AcceleratorConfig config;
        /** pairFingerprint(model, config). */
        std::string key;
    };

    std::vector<GanModel> models_;
    /** modelFingerprint of each of models_, formatted when added. */
    std::vector<std::string> modelKeys_;
    std::vector<GridConfig> configs_;
    std::vector<ExplicitPoint> extraPoints_;
    std::shared_ptr<CompiledModelCache> cache_;
    std::shared_ptr<MemoCache<IterationTemplate>> templates_;
    Instrumentation instruments_;
    bool pruning_ = false;
};

} // namespace lergan

#endif // LERGAN_CORE_SWEEP_HH
