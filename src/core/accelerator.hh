/**
 * @file
 * The LerGAN accelerator model (paper Sec. V, evaluated in Sec. VI).
 *
 * Combines the compiled mapping, the machine (CU pair + resources) and
 * the memory-controller FSM and lowers one full training iteration
 * (discriminator step then generator step, Fig. 13a/13b) into a task DAG,
 * the IterationTemplate. The machine is needed only for that lowering:
 * runIteration() executes a template on the event simulator with
 * nothing but a scratch, so a sweep builds an accelerator only when its
 * template cache misses.
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
 * per-run mutable state lives in the scratch each run executes on.
 *
 * Resource ids inside the graph index into the pool of the machine that
 * built it, which is constructed deterministically from the
 * configuration; the template keeps that pool's names and (in the
 * graph) its categories, so nothing of the machine is needed to run,
 * analyse or report it. This is what makes a shared cache sound (keyed
 * by pairFingerprint, see core/sweep.hh).
 */
struct IterationTemplate {
    TaskGraph graph;
    /** Build-time energies, traffic and metric counters. */
    BuildLedger ledger;
    /** The building machine's resource names, indexed by resource id
     *  (critical-path recording names binding resources by them). One
     *  list is shared by every template whose machine names its
     *  resources alike. */
    std::shared_ptr<const std::vector<std::string>> resourceNames;
};

/**
 * Run one iteration of @p tmpl on @p scratch: the one run path of sweep
 * points, sessions and LerGanAccelerator::trainIterations. Every
 * observer is optional:
 *
 * @param tracer  receives the iteration's task intervals and occupancy
 *                counter tracks (cleared first), what a Chrome trace
 *                exports. Its events take their kind, phase and label
 *                from the graph's identity table, which the tracer
 *                keeps alive.
 * @param metrics accumulates the template's ledger counters and
 *                sim-time telemetry (queue depth, resource contention);
 *                only integer instruments are used, so totals are
 *                independent of how many runs share the registry
 *                concurrently.
 * @param record  filled with the execution's record (binding
 *                predecessors, reservation and pop order —
 *                sim/exec_record.hh) for critical-path analysis and the
 *                audit. The tracer and the sim.* metrics are derived
 *                from the record after the run (sim/observe.hh); without
 *                one, a run that has either records into the scratch's
 *                reusable record instead. Recording never changes
 *                results, traces or metrics.
 * @return the iteration's makespan.
 */
PicoSeconds runIteration(const IterationTemplate &tmpl, ExecScratch &scratch,
                         Tracer *tracer, MetricsRegistry *metrics,
                         ExecRecord *record);

/**
 * The per-iteration report of an @p n-iteration run of @p tmpl, built
 * for (@p model, @p config) with mapping @p compiled, that took
 * @p iteration_time per iteration. Iterations are identical in steady
 * state, so counters are reported per iteration and scaled by @p n in
 * "total.*" keys.
 */
TrainingReport assembleReport(const GanModel &model,
                              const AcceleratorConfig &config,
                              const CompiledGan &compiled,
                              const IterationTemplate &tmpl, int n,
                              PicoSeconds iteration_time);

/**
 * The report assembleReport() gives with the event simulation replaced
 * by the analytic makespan estimate @p per_iteration (e.g. a
 * makespanBounds() upper bound). All energies are build-time facts of
 * the template, so they are exact; only the timing is an estimate. The
 * report carries "critpath.estimated" = 1 so exports can tell estimated
 * points from simulated ones. Bound-pruned sweep points use this.
 */
TrainingReport estimateReport(const GanModel &model,
                              const AcceleratorConfig &config,
                              const CompiledGan &compiled,
                              const IterationTemplate &tmpl, int n,
                              PicoSeconds per_iteration);

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
     * accelerators simulating concurrently on different threads; the
     * machine, controller, route cache and executor scratch are
     * per-accelerator.
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
     * averages): runIteration() of @p tmpl on the accelerator's own
     * scratch, reported by assembleReport(). The observers are
     * runIteration()'s.
     *
     * @param tmpl replayed instead of rebuilding the iteration DAG. It
     *             must come from makeIterationTemplate() of an
     *             accelerator with the same (model, config) pair;
     *             results, traces and metrics are identical to the
     *             rebuild path by construction (the rebuild path builds
     *             a template and replays it once).
     */
    TrainingReport trainIterations(int n = 1, Tracer *tracer = nullptr,
                                   MetricsRegistry *metrics = nullptr,
                                   const IterationTemplate *tmpl = nullptr,
                                   ExecRecord *record = nullptr);

    /**
     * Compile one training iteration into a replayable template (see
     * IterationTemplate). Resets the controller and fills the route
     * cache; nothing else of the accelerator changes.
     */
    std::shared_ptr<const IterationTemplate> makeIterationTemplate();

    const CompiledGan &compiled() const { return *compiled_; }
    Machine &machine() { return machine_; }

  private:
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
};

} // namespace lergan

#endif // LERGAN_CORE_ACCELERATOR_HH
