/**
 * @file
 * Robustness comparison: LerGAN vs PRIME under rising ReRAM fault
 * rates (seeded Monte Carlo, faults/montecarlo.hh).
 *
 * The papers LerGAN builds on assume pristine crossbars; real ReRAM
 * suffers stuck-at cells, bitline shorts and peripheral tile failures.
 * This bench sweeps a rising fault rate and reports, per configuration,
 * the latency/energy distribution across seeded fault-map realizations,
 * the capacity lost, and how many realizations fail outright (a bank
 * with no surviving tiles cannot host its phase). Every successful
 * trial is audited: a degraded mapping must never place or schedule
 * work on a killed tile.
 *
 * Deterministic by construction: trial seeds are mixed from the base
 * seed, so the table is byte-identical across runs and worker counts
 * (the golden regression diffs it at --threads 1 and 4).
 *
 * Usage:
 *   ./build/bench/fault_sweep [--trials 32] [--threads 0] [--golden]
 */

#include "bench_util.hh"
#include "common/args.hh"
#include "faults/montecarlo.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;

    ArgParser args;
    args.addOption("trials", "seeded fault-map realizations per point",
                   "32");
    args.addOption("threads",
                   "sweep workers (0 = one per hardware thread)", "0");
    args.addOption("golden", "omit host-dependent output (golden diffs)",
                   "", /*is_flag=*/true);
    Observability::addOptions(args);
    args.parse(argc, argv,
               "LerGAN vs PRIME robustness under rising fault rates");
    const bool golden = args.getFlag("golden");
    Observability obs(args);

    banner("Fault sweep: LerGAN vs PRIME under rising ReRAM fault rates",
           "zero-free mappings keep their edge while faults erode both");

    const GanModel model = makeBenchmark("DCGAN");
    // The headline axis: peripheral tile-kill rate, with proportional
    // stuck-at cell/column rates riding along at a tenth of it.
    const double rates[] = {0.0, 0.02, 0.05, 0.1, 0.2};
    const auto faulty = [](AcceleratorConfig config, double rate) {
        config.faults.tileKillRate = rate;
        config.faults.cellStuckRate = rate / 10.0;
        config.faults.columnStuckRate = rate / 10.0;
        return config;
    };

    TextTable table({"config", "kill rate", "ms mean", "ms p95",
                     "mJ mean", "mJ p95", "cap lost", "failed"});
    const PerfTimer timer;
    int trials_total = 0;
    bool audits_ok = true;
    for (double rate : rates) {
        FaultMonteCarlo experiment;
        experiment.addBenchmark(model)
            .addConfig("lergan-low",
                       faulty(AcceleratorConfig::lerGan(ReplicaDegree::Low),
                              rate))
            .addConfig("prime", faulty(AcceleratorConfig::prime(), rate));

        MonteCarloOptions options;
        options.trials = args.getInt("trials");
        options.threads = args.getInt("threads");
        options.baseSeed = 1905; // same trial seeds for every rate
        options.audit = AuditOptions::full();
        options.onProgress = obs.progress();
        options.telemetry = obs.registry();
        options.recorder = obs.recorder();
        const std::vector<SweepResult> results = experiment.run(options);

        for (const SweepResult &result : results) {
            const FaultSweepStats &stats = result.faults;
            trials_total += stats.trials;
            audits_ok = audits_ok && (!result.audit.ran ||
                                      result.audit.ok());
            if (result.failed) {
                table.addRow({result.configLabel, TextTable::num(rate),
                              "-", "-", "-", "-", "-",
                              std::to_string(stats.failedTrials)});
                continue;
            }
            table.addRow(
                {result.configLabel, TextTable::num(rate),
                 TextTable::num(stats.msPerIteration.mean, 3),
                 TextTable::num(stats.msPerIteration.p95, 3),
                 TextTable::num(stats.mjPerIteration.mean, 3),
                 TextTable::num(stats.mjPerIteration.p95, 3),
                 TextTable::num(stats.capacityLost.mean * 100.0) + "%",
                 std::to_string(stats.failedTrials)});
        }
    }
    table.print(std::cout);
    std::cout << "\naudit: "
              << (audits_ok ? "every successful trial passed"
                            : "FAILURES (simulator bug)")
              << "\n";
    if (!golden) {
        std::cout << "swept " << trials_total << " trials in "
                  << static_cast<long long>(timer.elapsedMs()) << " ms\n";
    }
    obs.finish();
    return audits_ok ? 0 : 1;
}
