/**
 * @file
 * Cross-layer result auditing (the "does the simulator agree with
 * itself" layer).
 *
 * Every headline number this repo produces is the sum of independent
 * estimates made in different layers: the tile model charges energies,
 * the event queue produces a makespan, the compiler sizes reshape
 * classes from closed forms, the allocator reserves crossbars. An
 * AuditContext re-derives each of those from the *other* side of the
 * layer boundary and flags disagreement:
 *
 *  - energy:  component families must account for every `energy.*`
 *    statistic, and the prefix-summed total must match the snapshot the
 *    accelerator took when the run finished (catches post-run mutation
 *    and scaling bugs in `total.*` aggregates);
 *  - timing:  the recorded task intervals must partition into phases
 *    whose union reaches exactly the event-queue makespan, with one
 *    recorded interval per simulated task;
 *  - zeros:   the paper's closed-form ZFDR class counts (Eq. 11-13)
 *    must match direct window enumeration for every reshaped op of the
 *    compiled model;
 *  - mapping: validateMapping() must pass on the compiled mapping;
 *  - faults:  a degraded run (fault injection or manual failed tiles)
 *    must never place crossbars or schedule work on an unusable tile,
 *    and killed tiles must hold zero bank usage. Skipped on healthy
 *    runs — the verdict of a fault-free simulation is unchanged.
 *
 * The checks are a fixed list, run in that order after a simulation,
 * over its immutable outputs; they never mutate anything. Wire-up:
 * SimulationSession::auditWith() / ExperimentSweep::auditWith() run a
 * context after every point and surface the verdict (core/api.hh,
 * core/sweep.hh).
 */

#ifndef LERGAN_AUDIT_AUDIT_HH
#define LERGAN_AUDIT_AUDIT_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lergan {

class AcceleratorConfig;
class TaskGraph;
class Tracer;
struct CompiledGan;
struct ExecRecord;
struct GanModel;
struct TrainingReport;

/** Whether to audit. */
struct AuditOptions {
    /** Master switch: disabled contexts audit nothing. */
    bool enabled = false;

    /** Auditing on. */
    static AuditOptions
    full()
    {
        AuditOptions options;
        options.enabled = true;
        return options;
    }
};

/** One violated invariant. */
struct AuditFinding {
    /** Name of the check that failed ("energy", "timing", ...). */
    std::string check;
    /** Human-readable description of the violation. */
    std::string detail;
};

/** Outcome of auditing one simulation. */
struct AuditVerdict {
    /** True once a context actually ran (default-constructed = not). */
    bool ran = false;
    /** Checks that executed (the timing check is skipped without a
     *  record, the fault check on a healthy run). */
    std::size_t checksRun = 0;
    /** Every violated invariant, in check order. */
    std::vector<AuditFinding> failures;

    bool ok() const { return failures.empty(); }

    /** Record one violation. */
    void
    fail(std::string check, std::string detail)
    {
        failures.push_back({std::move(check), std::move(detail)});
    }

    /** "ok (4 checks)" or a semicolon-joined failure list. */
    std::string summary() const;
};

/** Everything a check may inspect. All outputs of one simulation. */
struct AuditInput {
    const GanModel *model = nullptr;
    const AcceleratorConfig *config = nullptr;
    const CompiledGan *compiled = nullptr;
    const TrainingReport *report = nullptr;
    /** Trace of the simulated iteration, read only without a graph and
     *  record (see the trace adapter in audit.cc). */
    const Tracer *trace = nullptr;
    /** The simulated graph and the record of its execution. Without
     *  them (and without a trace) the timing check is skipped and the
     *  fault check scans no tasks. */
    const TaskGraph *graph = nullptr;
    const ExecRecord *record = nullptr;
};

/** Thrown by audited session runs when a check fails. */
class AuditError : public std::runtime_error
{
  public:
    explicit AuditError(AuditVerdict verdict);

    const AuditVerdict &verdict() const { return verdict_; }

  private:
    AuditVerdict verdict_;
};

/**
 * Runs the five checks — energy, timing, zeros, mapping, faults, in
 * that order — over a simulation's outputs. A context is immutable and
 * may audit many runs, also concurrently.
 */
class AuditContext
{
  public:
    explicit AuditContext(AuditOptions options = AuditOptions::full())
        : enabled_(options.enabled)
    {
    }

    /** Audit @p input; a disabled context returns a verdict that has
     *  not run. */
    AuditVerdict run(const AuditInput &input) const;

  private:
    bool enabled_;
};

} // namespace lergan

#endif // LERGAN_AUDIT_AUDIT_HH
