/**
 * @file
 * Fig. 19 reproduction: LerGAN speedup over PRIME, across duplication
 * degrees (ten training iterations, averaged — Sec. VI-C).
 *
 * Paper: 7.46x average; DCGAN gains more than 3D-GAN/GPGAN due to its
 * larger kernels; MAGAN-MNIST shows nearly no speedup; with equal space
 * (NS), LerGAN still delivers 2.1x.
 *
 * All 40 grid points plus the per-benchmark normalized-space points run
 * through the parallel sweep engine; results come back benchmark-major,
 * so the table rows read straight out of the result vector.
 *
 * This is also the repo's host-performance reference workload and the
 * only bench with the perf guard (bench/runner.hh): --bench-json
 * measures grid throughput per worker count plus the critical-path
 * recording and span-tracing A/B overheads into BENCH_fig19.json
 * (scripts/bench_baseline.sh), and --bench-check applies the four
 * verdicts against its newest entry (scripts/check.sh).
 */

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "core/validate.hh"
#include "critpath/whatif.hh"
#include "exec/thread_pool.hh"
#include "runner.hh"
#include "sim/trace_tracks.hh"

namespace {

/**
 * Trace one LerGAN-low DCGAN iteration with derived counter tracks —
 * transfer occupancy and the busiest wire's busy curve next to the task
 * spans — plus the critical chain as its own track, and export it for
 * Perfetto (--trace).
 */
void
exportCounterTrace(const std::string &path,
                   const lergan::FlightRecorder *recorder)
{
    using namespace lergan;
    const GanModel model = makeBenchmark("DCGAN");
    LerGanAccelerator accelerator(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const auto tmpl = accelerator.makeIterationTemplate();
    Tracer tracer;
    ExecRecord record;
    accelerator.trainIterations(1, &tracer, nullptr, tmpl.get(),
                                &record);
    std::vector<std::string> names = accelerator.resourceNames();
    addSpanOccupancyTrack(tracer, TaskKind::Transfer, "ic.xfer.active");
    const std::size_t wire =
        busiestResource(tracer, tmpl->graph, ResourceCategory::Wire);
    if (wire != SIZE_MAX)
        addResourceOccupancyTrack(tracer, tmpl->graph, wire,
                                  names[wire] + ".busy");
    const CriticalPath critical =
        extractCriticalPath(tmpl->graph, record, names);
    appendCriticalTrack(tracer, critical, names);
    // With tracing active, the sweep's flight-recorder spans ride along
    // as a second process ("host spans"), so the simulated timeline and
    // the host-side point lifecycle share one viewer.
    std::vector<SpanEvent> hostSpans;
    if (recorder)
        hostSpans = recorder->collect();
    std::ofstream out(path);
    if (!out)
        LERGAN_FATAL("cannot write trace file '", path, "'");
    tracer.exportChromeTrace(out, names,
                             hostSpans.empty() ? nullptr : &hostSpans);
    std::cerr << "trace: " << tracer.events().size() << " spans ("
              << critical.entries.size() << " critical), "
              << tracer.counterSamples().size() << " counter samples";
    if (!hostSpans.empty())
        std::cerr << ", " << hostSpans.size() << " host spans";
    std::cerr << " -> " << path << "\n";
}

/**
 * Warm A/B on-cost of critical-path recording: replay the fig19
 * (model, config) iteration templates through trainIterations, three
 * passes per half, with and without an ExecRecord attached. Compiles
 * and templates come warm out of the sweep's caches.
 */
double
recordingOverheadPct(lergan::ExperimentSweep &sweep)
{
    using namespace lergan;
    struct Probe {
        std::unique_ptr<LerGanAccelerator> acc;
        std::shared_ptr<const IterationTemplate> tmpl;
    };
    std::vector<Probe> probes;
    for (const GanModel &model : allBenchmarks()) {
        for (const AcceleratorConfig &config :
             {AcceleratorConfig::prime(),
              AcceleratorConfig::lerGan(ReplicaDegree::Low),
              AcceleratorConfig::lerGan(ReplicaDegree::High)}) {
            const std::string key = pairFingerprint(model, config);
            const auto compile = [&] {
                return std::make_shared<const CompiledGan>(
                    compileGanValidated(model, config));
            };
            Probe probe;
            probe.acc = std::make_unique<LerGanAccelerator>(
                model, config, sweep.cache().get(key, compile),
                LerGanAccelerator::Prevalidated{});
            probe.tmpl = sweep.templates().get(
                key, [&] { return probe.acc->makeIterationTemplate(); });
            probes.push_back(std::move(probe));
        }
    }
    ExecRecord record;
    const auto passes = [&](ExecRecord *rec) {
        for (int pass = 0; pass < 3; ++pass)
            for (Probe &probe : probes)
                probe.acc->trainIterations(bench::kIterations, nullptr,
                                           nullptr, probe.tmpl.get(),
                                           rec);
    };
    return bench::abOverheadPct([&] { passes(nullptr); },
                                [&] { passes(&record); });
}

/**
 * The perf guard (--bench-json / --bench-check): time the warm grid per
 * worker count, A/B critical-path recording and span tracing, then
 * write the entry and/or print the four verdicts against the committed
 * file's newest entry.
 *
 * @return 1 when a verdict is REGRESSION, else 0.
 */
int
perfGuard(const lergan::ArgParser &args, lergan::ExperimentSweep &sweep,
          const lergan::RunOptions &warm, const std::vector<int> &workers)
{
    using namespace lergan;
    using namespace lergan::bench;
    // Measured runs are unobserved: the product-default fast path is
    // the one the guard protects.
    const auto telemetry = sweep.telemetry();
    const auto recorder = sweep.recorder();
    sweep.withTelemetry(nullptr).withTracing(nullptr);

    BenchEntry entry;
    entry.label = args.get("bench-label");
    entry.commit = args.get("bench-commit");
    entry.gridPoints = sweep.pointCount();
    entry.hardwareThreads = defaultThreadCount();
    entry.measurements = measureSweep(
        sweep, kIterations, workers,
        std::max(1, args.getInt("bench-repeats")));
    entry.critpathRecordingPct = recordingOverheadPct(sweep);
    const auto flight = std::make_shared<FlightRecorder>();
    entry.tracingPct = abOverheadPct(
        [&] { sweep.withTracing(nullptr).run(warm); },
        [&] { sweep.withTracing(flight).run(warm); });
    sweep.withTelemetry(telemetry).withTracing(recorder);
    std::cerr << "overheads (warm A/B): critpath recording "
              << TextTable::num(entry.critpathRecordingPct)
              << "%, tracing " << TextTable::num(entry.tracingPct)
              << "% on-cost\n";

    if (args.given("bench-json"))
        writeBenchJson(args.get("bench-json"), entry,
                       args.getFlag("bench-append"));
    if (!args.given("bench-check"))
        return 0;
    bool ok = true;
    for (const GuardVerdict &verdict : guardVerdicts(
             readNewestBenchEntry(args.get("bench-check")), entry)) {
        std::cerr << verdict.line << "\n";
        ok = ok && verdict.ok;
    }
    return ok ? 0 : 1;
}

/**
 * Critical-path deep dive (--critpath): record DCGAN under the PRIME
 * baseline and LerGAN-low, print both chains, then run what-if
 * estimates against the low recording. Everything goes to stderr so the
 * goldened table is untouched.
 */
void
critpathReport()
{
    using namespace lergan;
    const GanModel model = makeBenchmark("DCGAN");

    const auto analyze = [&](const char *label,
                             const AcceleratorConfig &config) {
        SimulationSession session(config);
        session.withCriticalPath();
        const TrainingReport report =
            session.run(model, bench::kIterations);
        std::cerr << "critpath: DCGAN/" << label << "\n";
        report.critpath->path.print(std::cerr);
        return report.critpath;
    };
    analyze("prime", AcceleratorConfig::prime());
    const auto low =
        analyze("low", AcceleratorConfig::lerGan(ReplicaDegree::Low));

    const auto demo = [&](const WhatIfTransform &transform) {
        const WhatIfEstimate est = whatIf(*low, transform);
        std::cerr << "  what-if " << transform.description << ": "
                  << psToMs(est.makespan) << " ms  (bounds ["
                  << psToMs(est.lower) << ", " << psToMs(est.upper)
                  << "] ms)\n";
    };
    std::cerr << "what-if (DCGAN/low, recorded "
              << psToMs(low->record.makespan) << " ms):\n";
    demo(identityTransform(*low));
    demo(scaleResourceCategory(*low, "wire", 2.0));
    demo(scaleResourceCategory(*low, "compute", 2.0));
    demo(duplicateResourceCategory(*low, "compute", 2));
    demo(scalePhase(*low, "transfers", 0.5));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;

    Runner runner("Fig. 19: LerGAN vs PRIME (speedup, 10-iteration "
                  "average)",
                  "avg 7.46x; MAGAN-MNIST near 1x; 2.1x at equal space");
    ArgParser &args = runner.args();
    args.addOption("trace",
                   "write a Chrome trace (task spans + counter tracks + "
                   "critical chain) of one DCGAN/low iteration to this "
                   "file");
    args.addOption("critpath",
                   "print DCGAN critical paths (prime vs low), what-if "
                   "estimates and a bound-pruned rerun of the grid",
                   "", /*is_flag=*/true);
    args.addOption("bench-json",
                   "measure host performance (points/sec per worker "
                   "count, critpath-recording and tracing A/B overheads) "
                   "and write a BENCH_fig19.json entry to this file");
    args.addOption("bench-append",
                   "append the entry to an existing --bench-json file", "",
                   /*is_flag=*/true);
    args.addOption("bench-label", "label recorded in the bench-json entry",
                   "current");
    args.addOption("bench-commit",
                   "commit id recorded in the bench-json entry", "unknown");
    args.addOption("bench-workers",
                   "comma-separated worker counts to measure (0 = "
                   "hardware threads)",
                   "1,2,4,8");
    args.addOption("bench-repeats",
                   "timed repetitions per measured worker count", "3");
    args.addOption("bench-check",
                   "perf guard: re-measure and fail on a regression "
                   "against the newest entry of this BENCH_fig19.json "
                   "(throughput, scaling, recording and tracing "
                   "overheads)");
    runner.parse(argc, argv,
                 "Fig. 19: LerGAN vs PRIME speedup reproduction");
    const std::vector<int> benchWorkers =
        parseWorkerCounts(args.get("bench-workers"));

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("prime", AcceleratorConfig::prime())
        .addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low))
        .addConfig("middle",
                   AcceleratorConfig::lerGan(ReplicaDegree::Middle))
        .addConfig("high", AcceleratorConfig::lerGan(ReplicaDegree::High));
    // The NS budget depends on the benchmark's own PRIME mapping, so the
    // equal-space points are explicit, one per benchmark.
    for (const GanModel &model : allBenchmarks())
        sweep.addPoint(model, "low-NS", lerGanLowNs(model));

    const auto sweepResults = runner.runSweep(sweep, kIterations);
    RunOptions warm;
    warm.threads = runner.threads();
    warm.iterations = kIterations;

    if (args.getFlag("self-profile")) {
        // Telemetry on-cost on the warm grid, against the product
        // default of telemetry and tracing off; the A/B runs stay out
        // of the span profile.
        const auto registry = std::make_shared<MetricsRegistry>();
        sweep.withTracing(nullptr);
        const double overhead = abOverheadPct(
            [&] { sweep.withTelemetry(nullptr).run(warm); },
            [&] { sweep.withTelemetry(registry).run(warm); });
        std::cerr << "telemetry overhead (warm A/B): "
                  << TextTable::num(overhead) << "% on-cost\n";
        sweep.withTelemetry(runner.obs().registry())
            .withTracing(runner.obs().recorder());
    }

    if (args.getFlag("critpath")) {
        critpathReport();
        // Bound-pruned rerun of the warm grid: the counters show how
        // many comparison points the analytic bracket decided without
        // an event simulation.
        auto registry = std::make_shared<MetricsRegistry>();
        const auto saved = sweep.telemetry();
        sweep.withTelemetry(registry).withBoundPruning();
        sweep.run(warm);
        sweep.withBoundPruning(false).withTelemetry(saved);
        std::cerr << "prune: "
                  << registry->counter("critpath.pruned").value()
                  << " pruned, "
                  << registry->counter("critpath.simulated").value()
                  << " simulated of " << sweep.pointCount()
                  << " points\n";
    }

    const int rc = args.given("bench-json") || args.given("bench-check")
                       ? perfGuard(args, sweep, warm, benchWorkers)
                       : 0;

    if (args.given("trace"))
        exportCounterTrace(args.get("trace"),
                           runner.obs().recorder().get());

    TextTable table({"benchmark", "low", "middle", "high", "low-NS"});
    Mean m_low, m_mid, m_high, m_ns;
    for (const GanModel &model : allBenchmarks()) {
        const auto ms = [&](const char *label) {
            return resultOf(sweepResults, model.name, label)
                .report.timeMs();
        };
        const double prime = ms("prime");
        const auto speedup = [&](const char *label) {
            return prime / ms(label);
        };
        const double low = speedup("low");
        const double mid = speedup("middle");
        const double high = speedup("high");
        const double ns = speedup("low-NS");
        m_low.add(low);
        m_mid.add(mid);
        m_high.add(high);
        m_ns.add(ns);
        table.addRow({model.name, TextTable::num(low) + "x",
                      TextTable::num(mid) + "x", TextTable::num(high) + "x",
                      TextTable::num(ns) + "x"});
    }
    table.addRow({"MEAN", TextTable::num(m_low.value()) + "x",
                  TextTable::num(m_mid.value()) + "x",
                  TextTable::num(m_high.value()) + "x",
                  TextTable::num(m_ns.value()) + "x"});
    table.print(std::cout);
    std::cout << "\npaper: high-degree average 7.46x; equal-space 2.1x\n";
    runner.finish();
    return rc;
}
