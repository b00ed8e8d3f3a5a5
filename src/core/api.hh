/**
 * @file
 * Public umbrella API.
 *
 * Downstream users include this single header to parse or pick a GAN,
 * choose a configuration and simulate training. The primary entry point
 * is the session: construct it once per configuration, then run any
 * number of models — each distinct (model, config) pair is compiled
 * exactly once and the immutable compiled mapping is reused by every
 * subsequent run:
 *
 * @code
 *   #include "core/api.hh"
 *   using namespace lergan;
 *
 *   SimulationSession session(
 *       AcceleratorConfig::lerGan(ReplicaDegree::Low));
 *   GanModel dcgan = makeBenchmark("DCGAN");
 *   TrainingReport report = session.run(dcgan, 10); // compiles DCGAN
 *   report.print(std::cout);
 *   session.run(dcgan);                             // cache hit
 * @endcode
 *
 * Grids of (benchmark x configuration) points run through
 * ExperimentSweep (core/sweep.hh), which executes points in parallel
 * under RunOptions{threads, iterations, onProgress}. A session run is a
 * one-point sweep: both go through the same preparePoint/simulatePoint
 * pipeline and carry the same Instrumentation.
 */

#ifndef LERGAN_CORE_API_HH
#define LERGAN_CORE_API_HH

#include <cstdint>
#include <memory>
#include <string>

#include "audit/audit.hh"
#include "core/accelerator.hh"
#include "core/compiler.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "exec/model_cache.hh"
#include "nn/parser.hh"
#include "telemetry/flight_recorder.hh"
#include "nn/zero_analysis.hh"
#include "workloads/zoo.hh"

namespace lergan {

/**
 * A reusable simulation context for one accelerator configuration.
 *
 * The session owns (or shares) a CompiledModelCache: run() compiles a
 * given model at most once and reuses the cached mapping afterwards,
 * which is what makes repeated runs — convergence studies, parameter
 * explorations, serving many queries against the same configuration —
 * pay the compile cost once instead of per call. Its own template cache
 * likewise lowers each model's iteration DAG once.
 *
 * Thread safety: run() may be called concurrently from several threads;
 * the cache serializes compilation per (model, config) pair and every
 * run simulates on its own scratch.
 *
 * User errors (an unusable configuration, see
 * AcceleratorConfig::checkUsable, or fewer than one iteration) surface
 * as std::invalid_argument; internal invariant violations still panic.
 */
class SimulationSession
{
  public:
    /** Session with a private compiled-model cache. */
    explicit SimulationSession(AcceleratorConfig config);

    /** Session sharing @p cache with other sessions or sweeps. */
    SimulationSession(AcceleratorConfig config,
                      std::shared_ptr<CompiledModelCache> cache);

    /**
     * Simulate @p iterations training iterations of @p model.
     *
     * With auditing enabled (auditWith), the run is additionally
     * recorded and cross-checked by an AuditContext; a violated invariant throws
     * AuditError. Audit failures are simulator bugs, not user errors.
     * @p iterations below one throws std::invalid_argument.
     */
    TrainingReport run(const GanModel &model, int iterations = 1) const;

    /**
     * Enable result auditing for every subsequent run() of this
     * session. Not thread-safe against concurrent run()
     * calls; configure before handing the session out.
     */
    SimulationSession &auditWith(AuditOptions options);

    /**
     * Inject @p faults into every subsequent run() of this session:
     * replaces config().faults, so compiled mappings degrade around the
     * sampled fault map (stuck cells/columns, killed tiles, wear).
     * Distinct fault configs are distinct cache keys — switching fault
     * rates never aliases a healthy compiled mapping. Not thread-safe
     * against concurrent run() calls; configure before handing the
     * session out.
     */
    SimulationSession &withFaults(const FaultConfig &faults);

    /**
     * Simulate and audit @p model, returning the verdict instead of
     * throwing — for tooling that wants the full finding list. Always
     * audits, regardless of auditWith(). The audited
     * report lands in @p report when non-null.
     */
    AuditVerdict audit(const GanModel &model, int iterations = 1,
                       TrainingReport *report = nullptr) const;

    /**
     * Attach a metrics registry: every subsequent run() accumulates
     * sim-time telemetry (sim.*, ic.*, ctrl.* — see docs/INTERNALS.md)
     * into it. Pass null to detach. A default-constructed registry is
     * created when called with no argument. The registry may be shared
     * across sessions and threads; sim-time metrics only use integer
     * instruments, so totals are independent of run interleaving. Not
     * thread-safe against concurrent run() calls; configure before
     * handing the session out.
     */
    SimulationSession &withTelemetry(
        std::shared_ptr<MetricsRegistry> registry =
            std::make_shared<MetricsRegistry>());

    /** The attached metrics registry (null when telemetry is off). */
    const std::shared_ptr<MetricsRegistry> &telemetry() const
    {
        return instruments_.telemetry;
    }

    /**
     * Attach a flight recorder: every subsequent run() executes under
     * a root "run" span (trace id from allocateTraceId(), so session
     * traces never collide with sweep-point traces in a shared
     * recorder) with compile/template/simulate/audit stage children
     * recorded into the recorder's main-thread ring. Pass null to
     * detach.
     *
     * NOT thread-safe against concurrent run() calls: the main ring is
     * single-writer, and two threads running one traced session would
     * both record into it. Trace single-threaded sessions, or give
     * each thread its own session + recorder; parallel grids should
     * use ExperimentSweep::withTracing (per-lane rings) instead.
     */
    SimulationSession &withTracing(
        std::shared_ptr<FlightRecorder> recorder =
            std::make_shared<FlightRecorder>());

    /** The attached flight recorder (null when tracing is off). */
    const std::shared_ptr<FlightRecorder> &recorder() const
    {
        return instruments_.recorder;
    }

    /**
     * Record the dependence graph of every subsequent run(): each
     * report comes back with report.critpath set — the execution
     * record, the extracted critical path and everything the what-if
     * estimator (critpath/whatif.hh) needs. Recording never changes
     * simulation results; it adds bounded bookkeeping per task (a
     * noticeable fraction of the lean executor's ~80ns/task — the
     * fig19 critpath guard fails check.sh if the ratio regresses more
     * than 4 points past the committed baseline). Not thread-safe
     * against concurrent run() calls; configure before handing the
     * session out.
     */
    SimulationSession &withCriticalPath(bool enabled = true);

    const AcceleratorConfig &config() const { return config_; }

    /** @name Compile-cache observability (exact counters) */
    ///@{
    std::uint64_t cacheHits() const { return cache_->hits(); }
    std::uint64_t cacheMisses() const { return cache_->misses(); }
    const std::shared_ptr<CompiledModelCache> &cache() const
    {
        return cache_;
    }

    /** The session's iteration-template cache (exact counters). */
    const MemoCache<IterationTemplate> &templates() const
    {
        return *templates_;
    }
    ///@}

  private:
    /** One point of the shared pipeline, under a root "run" span. */
    SweepResult runPoint(const GanModel &model, int iterations,
                         const Instrumentation &instruments) const;

    AcceleratorConfig config_;
    /** configFingerprint(config_), formatted whenever config_ changes. */
    std::string configKey_;
    std::shared_ptr<CompiledModelCache> cache_;
    std::shared_ptr<MemoCache<IterationTemplate>> templates_;
    Instrumentation instruments_;
};

} // namespace lergan

#endif // LERGAN_CORE_API_HH
