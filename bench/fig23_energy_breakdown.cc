/**
 * @file
 * Fig. 23 reproduction: where LerGAN's energy goes, aggregated across
 * the experimented benchmarks.
 *
 * Paper: computing dominates with 70.4%; communication takes 16% thanks
 * to the 3D connection; the rest is buffers, storage, updates and
 * control.
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 23: LerGAN overall energy breakdown",
                  "computing 70.4%, communication 16%, others 13.6%");
    runner.parse(argc, argv, "Fig. 23 reproduction");

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const auto results = runner.runSweep(sweep, 1);
    StatSet total;
    for (const GanModel &model : allBenchmarks())
        total.merge(resultOf(results, model.name, "low").report.stats);

    const double all = total.sumPrefix("energy.");
    TextTable table({"component", "share", "paper"});
    auto row = [&](const char *name, double value, const char *paper) {
        table.addRow({name,
                      TextTable::num(100.0 * value / all, 1) + "%",
                      paper});
    };
    row("computing (crossbar MMVs)",
        total.sumPrefix("energy.compute."), "70.4%");
    row("communication (wires/bus)", total.sumPrefix("energy.comm."),
        "16.0%");
    row("buffers (BArray)", total.get("energy.buffer"), "-");
    row("storage (SArray)", total.get("energy.storage"), "-");
    row("weight updates", total.get("energy.update"), "-");
    row("control/switching", total.get("energy.control"), "-");
    table.print(std::cout);

    std::cout << "\ncommunication detail:\n";
    TextTable detail({"wire kind", "share of comm"});
    const double comm = total.sumPrefix("energy.comm.");
    for (const char *kind : {"htree", "added", "bypass", "bus"}) {
        detail.addRow(
            {kind,
             TextTable::num(100.0 *
                                total.get(std::string("energy.comm.") +
                                          kind) /
                                comm,
                            1) +
                 "%"});
    }
    detail.print(std::cout);
    runner.finish();
}
