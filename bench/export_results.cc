/**
 * @file
 * Machine-readable export of the core evaluation grid: all eight
 * benchmarks x {LerGAN low/middle/high, PRIME} as JSON and CSV, for
 * plotting outside the repo.
 *
 * Usage:
 *   ./build/bench/export_results --json results.json --csv results.csv
 *
 * --telemetry augments both exports with per-point host observations
 * (cache hit, wall ms) and a run summary (cache totals, wall clock);
 * combined with --trace-spans/--trace-anomalies it additionally gains
 * per-point span-count and queue-wait-ms columns. The default output
 * shape is unchanged without the flags, so existing consumers and the
 * golden diffs are unaffected.
 */

#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "common/args.hh"
#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "workloads/zoo.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;

    ArgParser args;
    args.addOption("json", "JSON output path", "lergan_results.json");
    args.addOption("csv", "CSV output path", "lergan_results.csv");
    args.addOption("iterations", "iterations per point", "1");
    args.addOption("threads",
                   "sweep workers (0 = one per hardware thread)", "0");
    args.addOption("audit",
                   "run cross-layer invariant checks on every point", "",
                   /*is_flag=*/true);
    args.addOption("telemetry",
                   "add per-point host observations and a cache/wall "
                   "summary to the exports",
                   "", /*is_flag=*/true);
    Observability::addOptions(args);
    args.parse(argc, argv, "export the evaluation grid for plotting");
    Observability obs(args);

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("lergan-low",
                    AcceleratorConfig::lerGan(ReplicaDegree::Low));
    sweep.addConfig("lergan-middle",
                    AcceleratorConfig::lerGan(ReplicaDegree::Middle));
    sweep.addConfig("lergan-high",
                    AcceleratorConfig::lerGan(ReplicaDegree::High));
    sweep.addConfig("prime", AcceleratorConfig::prime());
    if (args.getFlag("audit"))
        sweep.auditWith(AuditOptions::full());
    if (obs.registry())
        sweep.withTelemetry(obs.registry());
    if (obs.recorder())
        sweep.withTracing(obs.recorder());

    RunOptions options;
    options.threads = args.getInt("threads");
    options.iterations = args.getInt("iterations");
    options.onProgress = obs.progress();
    options.pointTelemetry =
        args.getFlag("telemetry") || obs.anomaliesWanted();

    const PerfTimer timer;
    const auto results = sweep.run(options);
    obs.reportSweep(results);
    const double wall_ms = timer.elapsedMs();

    SweepTelemetrySummary summary;
    summary.cacheHits = sweep.cache().hits();
    summary.cacheMisses = sweep.cache().misses();
    summary.wallMs = wall_ms;
    const SweepTelemetrySummary *summary_ptr =
        options.pointTelemetry ? &summary : nullptr;

    std::ofstream json(args.get("json"));
    writeSweepJson(json, results, summary_ptr);
    std::ofstream csv(args.get("csv"));
    writeSweepCsv(csv, results, summary_ptr);

    std::cout << "wrote " << results.size() << " points to "
              << args.get("json") << " and " << args.get("csv") << "\n";
    obs.finish();
    return 0;
}
