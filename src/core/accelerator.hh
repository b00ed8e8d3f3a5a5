/**
 * @file
 * The LerGAN accelerator model (paper Sec. V, evaluated in Sec. VI).
 *
 * Combines the compiled mapping, the machine (CU pair + resources) and
 * the memory-controller FSM, lowers one full training iteration
 * (discriminator step then generator step, Fig. 13a/13b) into a task DAG
 * and executes it on the event simulator.
 *
 * The same class simulates every PIM configuration of the evaluation:
 * LerGAN is (3D, ZFDR); the PRIME baseline is (H-tree, normal reshape);
 * the Fig. 16-18 ablations toggle the axes independently.
 */

#ifndef LERGAN_CORE_ACCELERATOR_HH
#define LERGAN_CORE_ACCELERATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "core/controller.hh"
#include "core/machine.hh"
#include "core/report.hh"
#include "reram/ledger.hh"
#include "reram/tile.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"
#include "telemetry/metrics.hh"

namespace lergan {

/**
 * One training iteration, compiled to a replayable template.
 *
 * GAN training iterations are structurally identical, so the task DAG
 * and the build ledger (schedule-independent energies, traffic and
 * metric counters) of one iteration are a pure function of (model,
 * config): build them once, replay them for every run of that pair.
 * The frozen graph is immutable and safe to execute concurrently; the
 * per-run mutable state lives in the executing accelerator.
 *
 * Resource ids inside the graph index into the machine's pool, which is
 * constructed deterministically from the configuration — a template
 * built by one accelerator is valid for any accelerator of the same
 * (model, config) pair, which is what makes a shared cache sound
 * (keyed by pairFingerprint, see core/sweep.hh).
 */
struct IterationTemplate {
    TaskGraph graph;
    /** Build-time energies, traffic and metric counters. */
    BuildLedger ledger;
    /** Controller advances per iteration (replayed for FSM fidelity). */
    int controllerAdvances = 0;
};

/** A GAN mapped onto one PIM configuration, ready to simulate. */
class LerGanAccelerator
{
  public:
    /** Tag: the compiled mapping already passed validateMapping. */
    struct Prevalidated {};

    /**
     * Compile @p model for @p config and get ready to simulate. Pass a
     * cached @p compiled (e.g. from a CompiledModelCache) to skip the
     * compile; it must be the result of compileGan(model, config).
     *
     * The compiled mapping is immutable and may be shared by several
     * accelerators simulating concurrently on different threads; all
     * mutable simulation state (machine, resources, controller, route
     * cache) is per-accelerator.
     */
    LerGanAccelerator(const GanModel &model, AcceleratorConfig config,
                      std::shared_ptr<const CompiledGan> compiled = nullptr);

    /**
     * Same, but skips re-validating @p compiled: for callers that hold
     * a mapping known to have passed validateMapping already (e.g. a
     * CompiledModelCache filled through compileGanValidated).
     */
    LerGanAccelerator(const GanModel &model, AcceleratorConfig config,
                      std::shared_ptr<const CompiledGan> compiled,
                      Prevalidated);

    /** Names of all resources, indexed by resource id (trace lanes). */
    std::vector<std::string> resourceNames() const;

    /**
     * Simulate @p n training iterations (the paper times ten and
     * averages). Iterations are identical in steady state, so this
     * simulates one and reports per-iteration numbers with counters
     * scaled by @p n in "total.*" keys. Every observer is optional:
     *
     * @param tracer  receives the simulated iteration's task intervals
     *                and occupancy counter tracks (cleared first), what
     *                a Chrome trace exports. Its events take their
     *                kind, phase and label from the template graph's
     *                identity table, which the tracer keeps alive.
     * @param metrics accumulates sim-time telemetry (queue depth,
     *                per-link flit traffic, controller transitions,
     *                resource contention); only integer instruments are
     *                used, so totals are independent of how many runs
     *                share the registry concurrently.
     * @param tmpl    replayed instead of rebuilding the iteration DAG —
     *                the fast path of repeated sweeps. It must come from
     *                makeIterationTemplate() of an accelerator with the
     *                same (model, config) pair; results, traces and
     *                metrics are identical to the rebuild path by
     *                construction (the rebuild path itself builds a
     *                template and replays it once).
     * @param record  filled with the execution's record (binding
     *                predecessors, reservation and pop order —
     *                sim/exec_record.hh) for critical-path analysis and
     *                the audit. The tracer and the sim.* metrics are
     *                derived from the record after the run
     *                (sim/observe.hh); without one, a run that has
     *                either records into the scratch's reusable record
     *                instead. Recording never changes results, traces or
     *                metrics.
     */
    TrainingReport trainIterations(int n = 1, Tracer *tracer = nullptr,
                                   MetricsRegistry *metrics = nullptr,
                                   const IterationTemplate *tmpl = nullptr,
                                   ExecRecord *record = nullptr);

    /**
     * The report trainIterations(n, ..., tmpl) would produce, with the
     * event simulation replaced by the analytic makespan estimate
     * @p per_iteration (e.g. a makespanBounds() upper bound). All
     * energies are build-time facts of the template, so they are exact;
     * only the timing is an estimate. The report carries
     * "critpath.estimated" = 1 so exports can tell estimated points
     * from simulated ones. Bound-pruned sweep points use this.
     */
    TrainingReport estimateIterations(int n, const IterationTemplate *tmpl,
                                      PicoSeconds per_iteration);

    /**
     * Compile one training iteration into a replayable template (see
     * IterationTemplate). Pure with respect to simulation results: the
     * machine's mutable state is untouched except the route cache and
     * the controller (which every run resets anyway).
     */
    std::shared_ptr<const IterationTemplate> makeIterationTemplate();

    /**
     * Execute with @p scratch instead of the accelerator's own
     * buffers (nullptr reverts). Sweep workers point every short-lived
     * accelerator they construct at their lane's long-lived arena, so
     * steady-state sweeps reuse the event calendar and counter buffers
     * across points instead of reallocating per accelerator. The
     * scratch must outlive the runs and must not be shared with a
     * concurrent execution.
     */
    void useScratch(ExecScratch *scratch) { externalScratch_ = scratch; }

    /** The buffers runs execute on: useScratch()'s, else the own. */
    ExecScratch &scratch()
    {
        return externalScratch_ ? *externalScratch_ : scratch_;
    }

    const CompiledGan &compiled() const { return *compiled_; }
    const GanModel &model() const { return model_; }
    const AcceleratorConfig &config() const { return config_; }
    Machine &machine() { return machine_; }

  private:
    /** Assemble the per-iteration report of an @p n-iteration run from
     *  a template plus the (real or estimated) timing outcome. */
    TrainingReport assembleReport(const IterationTemplate &tmpl, int n,
                                  PicoSeconds iteration_time) const;

    GanModel model_;
    AcceleratorConfig config_;
    std::shared_ptr<const CompiledGan> compiled_;
    Machine machine_;
    MemoryController controller_;
    TileModel tileModel_;
    /** Host-CPU resource (update arithmetic serializes here). */
    std::size_t cpuRes_;
    /** Reusable executor buffers (near-zero allocation on replay). */
    ExecScratch scratch_;
    /** When set, runs use this arena instead of scratch_. */
    ExecScratch *externalScratch_ = nullptr;
};

} // namespace lergan

#endif // LERGAN_CORE_ACCELERATOR_HH
