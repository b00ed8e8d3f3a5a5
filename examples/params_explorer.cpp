/**
 * @file
 * Device-parameter what-if explorer.
 *
 * The paper's Fig. 24 discussion projects ~3x power reduction from
 * 1-pJ-class cell switching [66] plus a 60% more efficient ADC [37].
 * This example runs that hypothetical (and any params file you provide)
 * against the default device, using the same simulator the figures use.
 *
 * Usage:
 *   ./build/examples/params_explorer                  # built-in what-ifs
 *   ./build/examples/params_explorer --params my.conf # your device
 *   ./build/examples/params_explorer --dump           # print defaults
 */

#include <iostream>
#include <sstream>

#include "common/args.hh"
#include "common/table.hh"
#include "core/api.hh"
#include "reram/params_io.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;

    ArgParser args;
    args.addOption("benchmark", "Table V benchmark name", "DCGAN");
    args.addOption("params", "params file to evaluate (key = value)", "");
    args.addOption("dump", "print the default parameters and exit", "",
                   true);
    args.parse(argc, argv, "explore device-parameter what-ifs");

    if (args.getFlag("dump")) {
        saveParams(std::cout, ReRamParams{});
        return 0;
    }

    const GanModel model = makeBenchmark(args.get("benchmark"));
    auto run = [&](const char *name, const ReRamParams &params) {
        AcceleratorConfig config =
            AcceleratorConfig::lerGan(ReplicaDegree::Low);
        config.reram = params;
        const TrainingReport report = SimulationSession(config).run(model);
        return std::tuple<std::string, double, double>(
            name, report.timeMs(), pjToMj(report.totalEnergyPj()));
    };

    TextTable table({"device", "ms/iter", "mJ/iter", "energy vs default"});
    const auto base = run("default (calibrated)", ReRamParams{});
    auto row = [&](const std::tuple<std::string, double, double> &r) {
        table.addRow({std::get<0>(r), TextTable::num(std::get<1>(r), 2),
                      TextTable::num(std::get<2>(r), 1),
                      TextTable::num(std::get<2>(base) / std::get<2>(r)) +
                          "x"});
    };
    row(base);

    // Fig. 24's hypothetical: near-free cell switching + better ADC.
    ReRamParams improved;
    improved.cellPjPerXbar *= 0.05;  // 1-pJ-class switching [66]
    improved.adcPjPerXbar *= 0.40;   // 60% more efficient ADC [37]
    improved.weightWritePjPerElem *= 0.05;
    row(run("1-pJ cells + efficient ADC", improved));

    // A slower but even cheaper device, for contrast.
    ReRamParams frugal = improved;
    frugal.mmvWaveNs *= 2.0;
    row(run("same, at half the MMV rate", frugal));

    if (!args.get("params").empty())
        row(run(args.get("params").c_str(),
                loadParamsFile(args.get("params"))));

    std::cout << "What-if devices on " << model.name << " (LerGAN-low):\n\n";
    table.print(std::cout);
    std::cout << "\npaper: the Fig. 24 improvements yield ~3x power "
                 "reduction.\n";
    return 0;
}
