/**
 * @file
 * The traced run: per-layer costs of one workload's inputs.
 *
 * Sweep-level layers (caches, worker queue, span tracing, export,
 * pruning) come from ExperimentSweep passes over the workload's grid.
 * Point-level layers come from spans the benchmark records around each
 * public call of a point's pipeline: parse, compile, reshape, template,
 * execute (bare and with each observer), audit, critical path, bounds.
 * The spans are the simulator's own (lergan::Span on a FlightRecorder);
 * they stay in memory until the run ends. Differences ("with X minus
 * without") are taken over the same points in the same run.
 */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "audit/audit.hh"
#include "core/compiler.hh"
#include "core/sweep_io.hh"
#include "critpath/whatif.hh"
#include "measure.hh"
#include "telemetry/tracing.hh"
#include "zfdr/reshape.hh"

namespace perfbench {

using namespace lergan;

namespace {

/** Shares of the run's seconds per stage of the traced run. */
constexpr double kUntracedShare = 0.2;
constexpr double kWorkersShare = 0.1;
constexpr double kTracingShare = 0.2;
constexpr double kProbeShare = 0.45;

/** One (model, config) point of the workload. */
struct ProbePoint {
    const Design *design;
    std::string label;
    AcceleratorConfig config;
};

std::vector<ProbePoint>
probePoints(const Workload &workload)
{
    std::vector<ProbePoint> points;
    for (const Design &design : workload.designs()) {
        for (const auto &[label, config] : Workload::gridConfigs())
            points.push_back({&design, label, config});
    }
    for (const Workload::Extra &extra : workload.extras()) {
        points.push_back({&workload.designs()[extra.model], extra.label,
                          extra.config});
    }
    return points;
}

/** Attribute key of a span's units of work (tasks, ops); default 1. */
constexpr const char *kUnits = "units";

/** Per-name totals over every recorded span of that name. */
struct SpanTotals {
    std::uint64_t count = 0;
    /** Sum of the spans' units of work. */
    std::uint64_t units = 0;
    double selfNs = 0.0;
};

std::uint64_t
unitsOf(const SpanEvent &event)
{
    for (std::uint32_t a = 0; a < event.attrCount; ++a) {
        if (std::strcmp(event.attrs[a].key, kUnits) == 0)
            return static_cast<std::uint64_t>(event.attrs[a].i);
    }
    return 1;
}

/**
 * Add the self time (duration minus the direct children's) of each
 * span of one trace, in collectTrace() order, to @p totals.
 */
void
addSelfTimes(const std::vector<SpanEvent> &events,
             std::map<std::string, SpanTotals> &totals)
{
    // Span ids count up from 1 within a trace: span id k is events[k-1]
    // unless the ring dropped some of the trace.
    std::vector<double> childNs(events.size(), 0.0);
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].span != i + 1)
            throw std::runtime_error("flight recorder dropped probe spans");
        if (events[i].parent != 0)
            childNs[events[i].parent - 1] += double(events[i].endNs -
                                                    events[i].beginNs);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        SpanTotals &t = totals[events[i].name];
        ++t.count;
        t.units += unitsOf(events[i]);
        t.selfNs += double(events[i].endNs - events[i].beginNs) - childNs[i];
    }
}

/**
 * The point pipeline, one span per public call, as trace @p trace.
 * The spans record only while the thread is bound to a recorder.
 * Returns the point's plain simulated result for the gate.
 */
SweepResult
probe(const ProbePoint &point, TraceId trace, MetricsRegistry &registry)
{
    Span root(trace, "point");
    GanModel model;
    {
        Span span("nn.parse");
        model = parseDesign(*point.design);
    }
    std::shared_ptr<const CompiledGan> compiled;
    {
        Span span("core.compile");
        compiled = std::make_shared<const CompiledGan>(
            compileGan(model, point.config));
    }
    std::vector<const LayerOp *> sparse;
    for (const CompiledPhase &phase : compiled->phases) {
        for (const MappedOp &op : phase.ops) {
            if (op.op.zfdrApplicable())
                sparse.push_back(&op.op);
        }
    }
    std::uint64_t matrices = 0;
    {
        Span span("zfdr.reshape");
        span.attr(kUnits, std::int64_t(sparse.size()));
        for (const LayerOp *op : sparse)
            matrices += analyzeReshape(*op).distinctMatrices();
    }
    if (!sparse.empty() && matrices == 0)
        throw std::runtime_error("reshape analysis found no matrices");

    LerGanAccelerator accelerator(model, point.config, compiled);
    std::shared_ptr<const IterationTemplate> tmpl;
    {
        Span span("core.template");
        tmpl = accelerator.makeIterationTemplate();
        span.attr(kUnits, std::int64_t(tmpl->graph.size()));
    }
    const std::uint64_t tasks = tmpl->graph.size();
    const auto run = [&](const char *name, Tracer *tracer,
                         MetricsRegistry *metrics, ExecRecord *record) {
        Span span(name);
        span.attr(kUnits, std::int64_t(tasks));
        return accelerator.trainIterations(kIterations, tracer, metrics,
                                           tmpl.get(), record);
    };
    SweepResult result;
    result.benchmark = model.name;
    result.configLabel = point.label;
    run("sim.execute.first", nullptr, nullptr, nullptr);
    run("sim.execute", nullptr, nullptr, nullptr);
    result.report = run("sim.execute", nullptr, nullptr, nullptr);
    Tracer tracer;
    const TrainingReport traced =
        run("sim.execute.tracer", &tracer, nullptr, nullptr);
    ExecRecord record;
    run("sim.execute.record", nullptr, nullptr, &record);
    run("sim.execute.metrics", nullptr, &registry, nullptr);

    AuditVerdict verdict;
    {
        Span span("audit");
        const AuditContext context(AuditOptions::full());
        verdict = context.run(
            {&model, &point.config, compiled.get(), &traced, &tracer});
    }
    const std::vector<std::string> names = accelerator.resourceNames();
    CriticalPath path;
    {
        Span span("critpath.extract");
        path = extractCriticalPath(tmpl->graph, record, names);
    }
    MakespanBounds bounds;
    {
        Span span("critpath.bounds");
        bounds = makespanBounds(tmpl->graph,
                                accelerator.machine().pool().size());
    }
    // Cross-layer agreement: a point whose observers disagree with the
    // plain simulation fails the gate.
    const PicoSeconds makespan = result.report.iterationTime;
    if (!verdict.ok())
        result.error = "audit: " + verdict.summary();
    else if (path.criticalDuration() != makespan)
        result.error = "critical path does not sum to the makespan";
    else if (bounds.upper != makespan)
        result.error = "bounds upper differs from the makespan";
    else if (traced.iterationTime != makespan)
        result.error = "traced makespan differs";
    result.failed = !result.error.empty();
    return result;
}

} // namespace

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"nn.parse.us_per_model", "us"},
        {"core.compile.us_per_point", "us"},
        {"zfdr.reshape.us_per_op", "us"},
        {"core.template.ns_per_task", "ns"},
        {"sim.freeze.ns_per_task", "ns"},
        {"sim.execute.ns_per_task", "ns"},
        {"sim.tasks_per_point", "count"},
        {"sim.queue.depth_mean", "count"},
        {"sim.queue.depth_max", "count"},
        {"sim.tracer.ns_per_task", "ns"},
        {"sim.record.ns_per_task", "ns"},
        {"telemetry.metrics.ns_per_task", "ns"},
        {"telemetry.tracing.us_per_point", "us"},
        {"audit.us_per_point", "us"},
        {"critpath.extract.us_per_point", "us"},
        {"critpath.bounds.us_per_point", "us"},
        {"critpath.pruned_frac", "ratio"},
        {"exec.compile_cache.miss_ratio", "ratio"},
        {"exec.template_cache.miss_ratio", "ratio"},
        {"exec.queue_wait_ms_p50", "ms"},
        {"exec.busy_frac_nw", "ratio"},
        {"core.export.us_per_point", "us"},
        {"trace.point_ms_mean_untraced", "ms"},
        {"trace.uncovered_frac", "ratio"},
        {"trace.span_overhead_us_per_point", "us"},
    };
    return defs;
}

RunOutcome
runTraced(const WorkloadSpec &spec, const RunConfig &config)
{
    Workload workload(spec, config.seed);
    // Cache lookups over one defined unit of work: the set-up pass plus
    // the first timed pass of the workload's own sweep.
    CacheCounts caches = workload.setup();
    Gate gate(workload.reference(config.referenceDir));
    const bool cold = spec.mode == Mode::Cold;
    const double budget = config.seconds;

    // Untraced 1-worker passes: the base of the uncovered share. The
    // base is the mean point time, because the span costs it is
    // compared with are per-point means (a median would mix the two on
    // a skewed grid).
    std::vector<double> hostMs;
    std::vector<SweepResult> sample;
    for (const auto start = std::chrono::steady_clock::now();
         secondsSince(start) < budget * kUntracedShare;) {
        PassOutput out = workload.pass(1, true);
        if (sample.empty())
            caches += out.caches;
        hostMs.insert(hostMs.end(), out.hostMs.begin(), out.hostMs.end());
        gate.check(out.results, exportOf(out.results));
        sample = std::move(out.results);
    }
    const double pointMs =
        std::accumulate(hostMs.begin(), hostMs.end(), 0.0) /
        double(std::max<std::size_t>(hostMs.size(), 1));

    // A sweep as the workload's passes use it: the persistent warm one,
    // or a fresh one per pass for cold-designs.
    std::unique_ptr<ExperimentSweep> owned;
    const auto passSweep = [&]() -> ExperimentSweep & {
        if (!cold)
            return *workload.sweep();
        owned = workload.freshSweep(true);
        return *owned;
    };

    // N-worker passes with a flight recorder: queue wait and busy share.
    const auto recorder = std::make_shared<FlightRecorder>();
    std::vector<double> queueWait, busy;
    for (const auto start = std::chrono::steady_clock::now();
         secondsSince(start) < budget * kWorkersShare;) {
        ExperimentSweep &sweep = passSweep();
        const auto saved = sweep.recorder();
        sweep.withTracing(recorder);
        RunOptions options;
        options.threads = config.workers;
        options.iterations = kIterations;
        options.pointTelemetry = true;
        const auto began = std::chrono::steady_clock::now();
        std::vector<SweepResult> results = sweep.run(options);
        const double wallMs = 1e3 * secondsSince(began);
        sweep.withTracing(saved);
        double hostSum = 0.0;
        for (const SweepResult &result : results) {
            queueWait.push_back(result.telemetry.queueWaitMs);
            hostSum += result.telemetry.hostMs;
        }
        busy.push_back(hostSum / (config.workers * wallMs));
        gate.check(results, exportOf(results));
    }
    const auto missRatio = [](std::uint64_t hits, std::uint64_t misses) {
        return double(misses) / double(std::max<std::uint64_t>(hits + misses,
                                                                1));
    };

    // Flight-recorder A/B: the same warm 1-worker pass with the
    // recorder detached and attached, in alternating order; the median
    // of the pairwise differences rejects pairs a host hiccup hit.
    std::unique_ptr<ExperimentSweep> plain = workload.freshSweep(cold);
    plain->run(kIterations);
    std::vector<double> tracingUsPerPoint;
    for (const auto start = std::chrono::steady_clock::now();
         secondsSince(start) < budget * kTracingShare;) {
        double passS[2] = {0.0, 0.0};
        const bool onFirst = tracingUsPerPoint.size() % 2 == 1;
        for (const bool traced : {onFirst, !onFirst}) {
            plain->withTracing(traced ? recorder : nullptr);
            const auto began = std::chrono::steady_clock::now();
            plain->run(kIterations);
            passS[traced] = secondsSince(began);
        }
        tracingUsPerPoint.push_back(1e6 * (passS[1] - passS[0]) /
                                    double(plain->pointCount()));
    }

    // Bound pruning over the workload's grid.
    auto pruned = workload.freshSweep(cold);
    auto prunedRegistry = std::make_shared<MetricsRegistry>();
    pruned->withBoundPruning().withTelemetry(prunedRegistry);
    gate.checkPoints(pruned->run(kIterations));
    const double prunedCount =
        double(prunedRegistry->counter("critpath.pruned").value());
    const double simulatedCount =
        double(prunedRegistry->counter("critpath.simulated").value());

    // Export of one pass's results.
    double exportNs = 0.0;
    std::uint64_t exported = 0;
    for (int rep = 0; rep < 20; ++rep) {
        std::ostringstream out;
        const std::uint64_t began = traceNowNs();
        writeSweepJson(out, sample);
        writeSweepCsv(out, sample);
        exportNs += double(traceNowNs() - began);
        exported += sample.size();
    }

    // Point pipeline, every point at least once. Each probe runs twice
    // over the same point, in alternating order: traced, with the thread
    // bound to the recorder's main ring, and untraced, with its spans
    // inert. Traced minus untraced time is the spans' overhead. Each
    // traced probe's spans are drained as soon as it ends, so the ring
    // never overwrites them.
    FlightRecorder spans;
    std::vector<SpanEvent> events;
    std::map<std::string, SpanTotals> totals;
    MetricsRegistry registry;
    const std::vector<ProbePoint> points = probePoints(workload);
    std::vector<SweepResult> probed(1);
    std::vector<double> overheadUs;
    for (const auto start = std::chrono::steady_clock::now();
         overheadUs.size() < points.size() ||
         secondsSince(start) < budget * kProbeShare;) {
        const ProbePoint &point = points[overheadUs.size() % points.size()];
        const bool tracedFirst = overheadUs.size() % 2 == 0;
        double probeNs[2] = {0.0, 0.0};
        for (const bool traced : {tracedFirst, !tracedFirst}) {
            const TraceId trace = spans.allocateTraceId();
            std::optional<MainLaneBinding> binding;
            if (traced)
                binding.emplace(spans);
            const std::uint64_t began = traceNowNs();
            probed[0] = probe(point, trace, registry);
            probeNs[traced] = double(traceNowNs() - began);
            binding.reset();
            gate.checkPoints(probed);
            if (traced) {
                const std::vector<SpanEvent> trail = spans.collectTrace(trace);
                addSelfTimes(trail, totals);
                events.insert(events.end(), trail.begin(), trail.end());
            }
        }
        overheadUs.push_back((probeNs[1] - probeNs[0]) / 1e3);
    }

    std::filesystem::create_directories(config.outDir);
    const std::string spansPath = config.outDir + "/spans-" + spec.name +
                                  "-seed" + std::to_string(config.seed) +
                                  ".ndjson";
    {
        std::ofstream out(spansPath);
        writeSpanNdjson(out, events);
    }

    const auto perUnit = [&](const char *name) {
        const SpanTotals &t = totals.at(name);
        return t.selfNs / double(std::max<std::uint64_t>(t.units, 1));
    };
    const auto perCall = [&](const char *name) {
        const SpanTotals &t = totals.at(name);
        return t.selfNs / double(std::max<std::uint64_t>(t.count, 1));
    };
    const double execNs = perUnit("sim.execute");
    const double tasksPerPoint =
        double(totals.at("sim.execute.first").units) /
        double(totals.at("sim.execute.first").count);
    const Histogram &depth = registry.histogram("sim.queue.depth");
    const double tracingUs = median(tracingUsPerPoint);
    const double prunedFrac = prunedCount + simulatedCount > 0
                                  ? prunedCount /
                                        (prunedCount + simulatedCount)
                                  : 0.0;

    // The layers a point of this workload passes through inside the
    // sweep's timed point body, in ms per point.
    const double execMs = execNs * tasksPerPoint / 1e6;
    const auto extraMs = [&](const char *name) {
        return (perUnit(name) - execNs) * tasksPerPoint / 1e6;
    };
    double coveredMs = execMs;
    switch (spec.mode) {
      case Mode::Warm:
        break;
      case Mode::Observed:
        coveredMs += extraMs("sim.execute.tracer") +
                     extraMs("sim.execute.record") +
                     extraMs("sim.execute.metrics") +
                     (perCall("audit") + perCall("critpath.extract")) / 1e6 +
                     tracingUs / 1e3;
        break;
      case Mode::Cold:
        coveredMs += (perCall("core.compile") + perCall("core.template")) /
                         1e6 +
                     extraMs("sim.execute.first");
        break;
    }

    std::cout << "workload " << spec.name << " (traced): seed "
              << config.seed << ", " << points.size() << " probe points, "
              << events.size() << " spans -> " << spansPath << "\n"
              << "  cache lookups over set-up + one pass: compile "
              << caches.compileHits << " hits / " << caches.compileMisses
              << " misses, template " << caches.templateHits << " / "
              << caches.templateMisses << "\n"
              << "  pruned " << prunedCount << " of "
              << prunedCount + simulatedCount << " grid points\n";
    std::cout << "  self time per span name (ms total / calls):\n";
    for (const auto &[name, t] : totals) {
        std::cout << "    " << name << " " << t.selfNs / 1e6 << " / "
                  << t.count << "\n";
    }

    RunOutcome outcome;
    outcome.attempted = gate.attempted();
    outcome.failed = gate.failed();
    outcome.values = {
        {"nn.parse.us_per_model", perCall("nn.parse") / 1e3},
        {"core.compile.us_per_point", perCall("core.compile") / 1e3},
        {"zfdr.reshape.us_per_op", perUnit("zfdr.reshape") / 1e3},
        {"core.template.ns_per_task", perUnit("core.template")},
        {"sim.freeze.ns_per_task", perUnit("sim.execute.first") - execNs},
        {"sim.execute.ns_per_task", execNs},
        {"sim.tasks_per_point", tasksPerPoint},
        {"sim.queue.depth_mean",
         double(depth.sum()) / double(std::max<std::uint64_t>(
                                   depth.count(), 1))},
        {"sim.queue.depth_max", double(depth.max())},
        {"sim.tracer.ns_per_task", perUnit("sim.execute.tracer") - execNs},
        {"sim.record.ns_per_task", perUnit("sim.execute.record") - execNs},
        {"telemetry.metrics.ns_per_task",
         perUnit("sim.execute.metrics") - execNs},
        {"telemetry.tracing.us_per_point", tracingUs},
        {"audit.us_per_point", perCall("audit") / 1e3},
        {"critpath.extract.us_per_point", perCall("critpath.extract") / 1e3},
        {"critpath.bounds.us_per_point", perCall("critpath.bounds") / 1e3},
        {"critpath.pruned_frac", prunedFrac},
        {"exec.compile_cache.miss_ratio",
         missRatio(caches.compileHits, caches.compileMisses)},
        {"exec.template_cache.miss_ratio",
         missRatio(caches.templateHits, caches.templateMisses)},
        {"exec.queue_wait_ms_p50", median(queueWait)},
        {"exec.busy_frac_nw", median(busy)},
        {"core.export.us_per_point", exportNs / 1e3 / double(exported)},
        {"trace.point_ms_mean_untraced", pointMs},
        {"trace.uncovered_frac", 1.0 - coveredMs / pointMs},
        {"trace.span_overhead_us_per_point", median(overheadUs)},
    };
    return outcome;
}

} // namespace perfbench
