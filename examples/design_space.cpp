/**
 * @file
 * Sweep the full accelerator design space for one benchmark: connection
 * x reshape x duplication, the axes the paper's Fig. 16-19 explore.
 * Prints a time/energy/space table so the trade-offs (and the Pareto
 * frontier) are visible in one place.
 *
 * The eight points execute on the parallel sweep engine with a live
 * progress line — the pattern to copy for larger design-space scans.
 *
 * Usage:
 *   ./build/examples/design_space
 *   ./build/examples/design_space --benchmark GPGAN --iterations 10
 *   ./build/examples/design_space --threads 1        # sequential
 */

#include <iostream>
#include <stdexcept>

#include "common/args.hh"
#include "common/table.hh"
#include "core/api.hh"
#include "core/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;

    ArgParser args;
    args.addOption("benchmark", "Table V benchmark name", "DCGAN");
    args.addOption("iterations", "training iterations to simulate", "1");
    args.addOption("threads",
                   "sweep workers (0 = one per hardware thread)", "0");
    args.parse(argc, argv, "sweep connection x reshape x duplication");

    const GanModel model = makeBenchmark(args.get("benchmark"));
    const int iterations = args.getInt("iterations");

    struct Point {
        const char *name;
        Connection connection;
        ReshapeMode reshape;
        bool duplicate;
        ReplicaDegree degree;
    };
    const Point points[] = {
        {"2D + NR (PRIME-style)", Connection::HTree, ReshapeMode::Normal,
         false, ReplicaDegree::Low},
        {"2D + NR + dup", Connection::HTree, ReshapeMode::Normal, true,
         ReplicaDegree::Middle},
        {"2D + ZFDR", Connection::HTree, ReshapeMode::Zfdr, false,
         ReplicaDegree::Low},
        {"3D + NR", Connection::ThreeD, ReshapeMode::Normal, false,
         ReplicaDegree::Low},
        {"3D + ZFDR", Connection::ThreeD, ReshapeMode::Zfdr, false,
         ReplicaDegree::Low},
        {"3D + ZFDR + low", Connection::ThreeD, ReshapeMode::Zfdr, true,
         ReplicaDegree::Low},
        {"3D + ZFDR + middle", Connection::ThreeD, ReshapeMode::Zfdr, true,
         ReplicaDegree::Middle},
        {"3D + ZFDR + high", Connection::ThreeD, ReshapeMode::Zfdr, true,
         ReplicaDegree::High},
    };

    ExperimentSweep sweep;
    sweep.addBenchmark(model);
    for (const Point &point : points) {
        AcceleratorConfig config;
        config.connection = point.connection;
        config.reshape = point.reshape;
        config.duplicate = point.duplicate;
        config.degree = point.degree;
        sweep.addConfig(point.name, config);
    }

    RunOptions options;
    options.threads = args.getInt("threads");
    options.iterations = iterations;
    options.onProgress = [&](std::size_t done, std::size_t total) {
        std::cerr << "\rsimulated " << done << "/" << total << " points"
                  << (done == total ? "\n" : "") << std::flush;
    };
    std::vector<SweepResult> results;
    try {
        results = sweep.run(options);
    } catch (const std::invalid_argument &error) {
        std::cerr << "design_space: " << error.what() << '\n';
        return 1;
    }

    TextTable table({"configuration", "ms/iter", "mJ/iter", "crossbars",
                     "speedup", "energy saving"});
    const double base_time = results.front().report.timeMs();
    const double base_energy = results.front().report.totalEnergyPj();
    for (const SweepResult &result : results) {
        table.addRow({result.configLabel,
                      TextTable::num(result.report.timeMs(), 2),
                      TextTable::num(
                          pjToMj(result.report.totalEnergyPj()), 1),
                      std::to_string(result.crossbarsUsed),
                      TextTable::num(base_time / result.report.timeMs()) +
                          "x",
                      TextTable::num(base_energy /
                                     result.report.totalEnergyPj()) +
                          "x"});
    }

    std::cout << "Design space for " << model.name << " (batch 64, "
              << iterations << " iteration(s))\n\n";
    table.print(std::cout);
    std::cout << "\nReading guide: ZFDR needs the 3D connection to pay "
                 "off (Fig. 17); duplication trades CArray space and "
                 "update energy for speed (Fig. 19/20).\n";
    return 0;
}
