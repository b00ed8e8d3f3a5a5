#include "audit/audit.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/strings.hh"
#include "core/compiler.hh"
#include "core/machine.hh"
#include "core/phase_report.hh"
#include "core/report.hh"
#include "core/validate.hh"
#include "reram/ledger.hh"
#include "sim/exec_record.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"
#include "zfdr/formulas.hh"
#include "zfdr/reshape.hh"

namespace lergan {

namespace {

/** Relative tolerance of floating-point sum comparisons. */
constexpr double kRelTolerance = 1e-9;

/** Relative closeness under kRelTolerance. */
bool
near(double a, double b)
{
    return std::abs(a - b) <=
           kRelTolerance * std::max({std::abs(a), std::abs(b), 1.0});
}

/** printf-lite failure helper. */
template <typename... Args>
void
fail(AuditVerdict &verdict, const char *check, Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    verdict.fail(check, oss.str());
}

/**
 * The component families of the accelerator's energy accounting. The
 * breakdowns (fig23, the exporters, TrainingReport::print) enumerate
 * exactly these; an `energy.*` key outside them is charged into the
 * total but silently missing from every breakdown.
 */
constexpr const char *kEnergyPrefixFamilies[] = {
    "energy.compute.",
    "energy.comm.",
};
constexpr Quantity kEnergyScalarComponents[] = {
    Quantity::Control, Quantity::Buffer, Quantity::Storage, Quantity::Update};

bool
knownEnergyComponent(const std::string &name)
{
    for (const char *prefix : kEnergyPrefixFamilies)
        if (startsWith(name, prefix))
            return true;
    for (Quantity scalar : kEnergyScalarComponents)
        if (name == quantityName(scalar))
            return true;
    return false;
}

/**
 * (a) Energy conservation. Every `energy.*` statistic must be finite,
 * non-negative and claimed by a known component family; the family sum
 * must equal the prefix-summed total; and the total must still match
 * the snapshot the accelerator took when the run finished
 * ("audit.energy_total_pj"), which catches post-run mutation. The
 * scaled "total.energy_mj" aggregate is re-derived too.
 */
void
checkEnergy(const AuditInput &input, AuditVerdict &verdict)
{
    const StatSet &stats = input.report->stats;
    double family_sum = 0.0;
    for (const auto &[name, value] : stats) {
        if (!startsWith(name, "energy."))
            continue;
        if (!std::isfinite(value)) {
            fail(verdict, "energy", name, " is not finite");
            continue;
        }
        if (value < 0.0)
            fail(verdict, "energy", name, " is negative: ", value);
        if (!knownEnergyComponent(name)) {
            fail(verdict, "energy", name,
                 " belongs to no known component family (breakdowns"
                 " will not account for it)");
            continue;
        }
        family_sum += value;
    }

    const double total = input.report->totalEnergyPj();
    if (!near(family_sum, total)) {
        fail(verdict, "energy", "component families sum to ", family_sum,
             " pJ but the energy.* total is ", total, " pJ");
    }
    if (!stats.has("audit.energy_total_pj")) {
        fail(verdict, "energy",
             "missing audit.energy_total_pj snapshot (report did not"
             " come from an accelerator run)");
    } else if (!near(stats.get("audit.energy_total_pj"), total)) {
        fail(verdict, "energy", "energy statistics changed after the"
                                " run: snapshot ",
             stats.get("audit.energy_total_pj"), " pJ vs current total ",
             total, " pJ");
    }
    if (stats.has("total.energy_mj")) {
        const double expected =
            pjToMj(total) * stats.get("total.iterations");
        if (!near(stats.get("total.energy_mj"), expected)) {
            fail(verdict, "energy", "total.energy_mj is ",
                 stats.get("total.energy_mj"), " but ",
                 stats.get("total.iterations"),
                 " iterations of the per-iteration total give ",
                 expected);
        }
    }
}

/**
 * A run as the timing and fault checks read it: per-task columns
 * indexed by TaskId, viewing the graph and its record, or a trace.
 */
struct RunColumns {
    /** Kind, phase and label of every task; null: no run to read. */
    const TaskIdentity *tasks = nullptr;
    std::span<const PicoSeconds> start, end;
    /** Resources held per task: the graph's, else the trace's lanes. */
    const TaskGraph *graph = nullptr;
    std::vector<std::uint32_t> lanes;
    /** The trace adapter's storage behind start and end. */
    std::vector<PicoSeconds> traceStart, traceEnd;
};

/**
 * The trace adapter: maps the events of @p input's trace (if any) onto
 * per-task columns in @p run. An event count other than the task
 * count, or a task seen twice, is a timing failure. This is the only
 * reader of AuditInput::trace, which benchmark code still passes; the
 * adapter goes when the Tracer does.
 */
void
traceColumns(const AuditInput &input, RunColumns &run,
             AuditVerdict &verdict)
{
    if (!input.trace || !input.trace->tasks())
        return;
    const Tracer &trace = *input.trace;
    const std::size_t n = trace.tasks()->phases.size();
    if (trace.events().size() != n) {
        fail(verdict, "timing", "trace has ", trace.events().size(),
             " events for ", n, " simulated tasks");
    }
    run.traceStart.assign(n, 0);
    run.traceEnd.assign(n, 0);
    run.lanes.assign(n, ExecRecord::kNoResource);
    std::vector<char> seen(n, 0);
    for (const TraceEvent &event : trace.events()) {
        if (event.task >= n)
            continue; // counted above
        if (std::exchange(seen[event.task], 1)) {
            fail(verdict, "timing", trace.label(event),
                 " has more than one trace event");
        }
        run.traceStart[event.task] = event.start;
        run.traceEnd[event.task] = event.end;
        // No lane (SIZE_MAX) narrows to kNoResource.
        run.lanes[event.task] = static_cast<std::uint32_t>(event.lane);
    }
    run.tasks = trace.tasks();
    run.start = run.traceStart;
    run.end = run.traceEnd;
}

/**
 * (b) Time consistency. Every task's interval inside [0, makespan],
 * the phase grouping a partition of the tasks whose union reaches
 * exactly the event-queue makespan, and the scaled "total.time_ms"
 * aggregate consistent with the iteration time.
 */
void
checkTiming(const AuditInput &input, const RunColumns &run,
            AuditVerdict &verdict)
{
    const StatSet &stats = input.report->stats;
    const PicoSeconds makespan = input.report->iterationTime;
    const std::size_t n = run.start.size();
    PicoSeconds last_end = 0;
    std::uint64_t busy_total = 0;
    for (TaskId id = 0; id < n; ++id) {
        const PicoSeconds start = run.start[id], end = run.end[id];
        if (end < start) {
            fail(verdict, "timing", run.tasks->label(id), " ends (", end,
                 ") before it starts (", start, ")");
        }
        if (end > makespan) {
            fail(verdict, "timing", run.tasks->label(id), " ends at ", end,
                 " ps, after the makespan ", makespan, " ps");
        }
        last_end = std::max(last_end, end);
        busy_total += end - start;
    }
    if (n != 0 && last_end != makespan) {
        fail(verdict, "timing", "last task ends at ", last_end,
             " ps but the event-queue makespan is ", makespan, " ps");
    }

    // The phase grouping must partition the tasks: summed busy times
    // and task counts equal the raw totals, and the phase windows must
    // reach the makespan.
    std::uint64_t phase_busy = 0, phase_tasks = 0;
    PicoSeconds phase_end = 0;
    for (const PhaseTime &phase :
         phaseTimes(run.tasks->phases, run.start, run.end)) {
        phase_busy += phase.busy;
        phase_tasks += phase.tasks;
        phase_end = std::max(phase_end, phase.lastEnd);
    }
    if (phase_tasks != n) {
        fail(verdict, "timing", "phase grouping covers ", phase_tasks,
             " of ", n, " tasks");
    }
    if (phase_busy != busy_total) {
        fail(verdict, "timing", "phase busy times sum to ", phase_busy,
             " ps but the run holds ", busy_total, " ps of work");
    }
    if (n != 0 && phase_end != makespan) {
        fail(verdict, "timing", "phase windows end at ", phase_end,
             " ps but the makespan is ", makespan, " ps");
    }

    if (stats.has("total.time_ms")) {
        const double expected =
            input.report->timeMs() * stats.get("total.iterations");
        if (!near(stats.get("total.time_ms"), expected)) {
            fail(verdict, "timing", "total.time_ms is ",
                 stats.get("total.time_ms"), " but ",
                 stats.get("total.iterations"),
                 " iterations of the makespan give ", expected);
        }
    }
}

/**
 * (c) Zero accounting. For every reshaped op of the compiled model the
 * closed-form class counts (zfdr/formulas.hh) must match direct window
 * enumeration, and the classes must jointly serve every output
 * position. Asymmetrically padded ops are skipped (the paper's closed
 * forms assume symmetry; enumeration is authoritative there).
 */
void
checkZeros(const AuditInput &input, AuditVerdict &verdict)
{
    for (const CompiledPhase &phase : input.compiled->phases) {
        for (const MappedOp &mapped : phase.ops) {
            const LayerOp &op = mapped.op;
            if (!mapped.usesZfdr || !op.zfdrApplicable())
                continue;
            if (op.padLo != op.padHi)
                continue;

            const ReshapeAnalysis analysis = analyzeReshape(op);
            ClassCounts counts;
            if (op.pattern == OpPattern::SparseGridConv) {
                counts = tconvClassCounts(op.data, op.stride, op.padLo,
                                          op.rem, op.window,
                                          op.spatialDims);
            } else {
                counts = wconvClassCounts(op.data, op.padLo, op.window,
                                          op.stride, op.rem,
                                          op.spatialDims);
            }
            const auto mismatch = [&](const char *cls,
                                      std::uint64_t enumerated,
                                      std::uint64_t formula) {
                if (enumerated != formula) {
                    fail(verdict, "zeros", op.label, ": ", cls,
                         " class enumerates ", enumerated,
                         " matrices but the closed form gives ",
                         formula);
                }
            };
            mismatch("corner", analysis.corner.matrices, counts.corner);
            mismatch("edge", analysis.edge.matrices, counts.edge);
            mismatch("inside", analysis.inside.matrices, counts.inside);

            const std::uint64_t served = analysis.corner.servedPositions +
                                         analysis.edge.servedPositions +
                                         analysis.inside.servedPositions;
            if (served != analysis.totalPositions) {
                fail(verdict, "zeros", op.label,
                     ": reshape classes serve ", served, " of ",
                     analysis.totalPositions, " output positions");
            }
        }
    }
}

/** (d) Mapping validity: every validateMapping violation is a finding. */
void
checkMapping(const AuditInput &input, AuditVerdict &verdict)
{
    const ValidationResult result =
        validateMapping(*input.model, *input.config, *input.compiled);
    for (const std::string &violation : result.violations)
        verdict.fail("mapping", violation);
}

/**
 * (e) Graceful degradation. A run compiled against a fault map (or a
 * manual failed-tile list) must route around every unusable tile: no
 * allocation range reserves crossbars there, the placement's bank usage
 * is zero there, and — when the run's tasks are known — no task held a
 * killed tile's compute resource in any of its resource slots. Skipped
 * entirely on healthy runs so their verdicts (and the goldens that pin
 * them) are unchanged.
 *
 * @return whether the check ran.
 */
bool
checkFaults(const AuditInput &input, const RunColumns *run,
            AuditVerdict &verdict)
{
    const FaultImpact &impact = input.compiled->faultImpact;
    const auto &manual = input.config->failedTiles;
    if (!impact.active && manual.empty())
        return false; // healthy run: nothing to audit against

    std::set<std::pair<int, int>> unusable(manual.begin(), manual.end());
    if (impact.active) {
        unusable.insert(impact.unusableTiles.begin(),
                        impact.unusableTiles.end());
    }

    for (const CompiledPhase &phase : input.compiled->phases) {
        for (const MappedOp &mapped : phase.ops) {
            for (const CrossbarRange &range : mapped.allocation.ranges) {
                if (range.count > 0 &&
                    unusable.count({range.bank, range.tile})) {
                    fail(verdict, "faults", mapped.op.label,
                         " reserves ", range.count,
                         " crossbars on unusable tile (bank ", range.bank,
                         ", tile ", range.tile, ")");
                }
            }
        }
    }

    const auto &usage = input.compiled->bankUsage;
    for (const auto &[bank, tile] : unusable) {
        if (bank < 0 || tile < 0 ||
            static_cast<std::size_t>(bank) >= usage.size() ||
            static_cast<std::size_t>(tile) >= usage[bank].size()) {
            fail(verdict, "faults", "unusable tile (bank ", bank,
                 ", tile ", tile, ") is outside the machine");
            continue;
        }
        if (usage[bank][tile] != 0) {
            fail(verdict, "faults", "killed tile (bank ", bank,
                 ", tile ", tile, ") still holds ", usage[bank][tile],
                 " crossbars of placement");
        }
    }

    if (run != nullptr) {
        // Re-derive the resource ids of the killed tiles' compute
        // pipelines from a fresh machine of the same config and make
        // sure no task held one.
        const Machine machine(*input.config);
        std::set<std::size_t> dead;
        for (const auto &[bank, tile] : unusable) {
            if (bank >= 0 && tile >= 0 && bank < 6 * input.config->cuPairs &&
                tile < input.config->reram.tilesPerBank)
                dead.insert(machine.tileComputeRes(bank, tile));
        }
        for (TaskId id = 0; id < run->start.size(); ++id) {
            for (const std::uint32_t resource :
                 run->graph ? run->graph->resources(id)
                            : std::span(run->lanes).subspan(id, 1)) {
                if (dead.count(resource)) {
                    fail(verdict, "faults", run->tasks->label(id),
                         " executed on the compute resource of a killed"
                         " tile (resource ",
                         resource, ")");
                }
            }
        }
    }
    return true;
}

} // namespace

std::string
AuditVerdict::summary() const
{
    if (ok()) {
        return "ok (" + std::to_string(checksRun) + " check" +
               (checksRun == 1 ? "" : "s") + ")";
    }
    std::string out;
    for (const AuditFinding &finding : failures) {
        if (!out.empty())
            out += "; ";
        out += finding.check + ": " + finding.detail;
    }
    return out;
}

AuditError::AuditError(AuditVerdict verdict)
    : std::runtime_error("audit failed: " + verdict.summary()),
      verdict_(std::move(verdict))
{
}

AuditVerdict
AuditContext::run(const AuditInput &input) const
{
    AuditVerdict verdict;
    if (!enabled_)
        return verdict;
    verdict.ran = true;
    checkEnergy(input, verdict);
    ++verdict.checksRun;
    RunColumns columns;
    if (input.graph && input.record) {
        LERGAN_ASSERT(input.record->start.size() == input.graph->size(),
                      "record is not of a run of this graph");
        columns.tasks = input.graph->identity().get();
        columns.start = input.record->start;
        columns.end = input.record->end;
        columns.graph = input.graph;
    } else {
        traceColumns(input, columns, verdict);
    }
    if (columns.tasks) {
        checkTiming(input, columns, verdict);
        ++verdict.checksRun;
    }
    checkZeros(input, verdict);
    checkMapping(input, verdict);
    verdict.checksRun += 2;
    if (checkFaults(input, columns.tasks ? &columns : nullptr, verdict))
        ++verdict.checksRun;
    return verdict;
}

} // namespace lergan
