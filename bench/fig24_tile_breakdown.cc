/**
 * @file
 * Fig. 24 reproduction: energy breakdown inside a ReRAM tile.
 *
 * Paper: ADC 45.14% and cell switching 40.16% dominate; the remainder is
 * DAC, sample-and-hold, drivers and the tile buffer. Weight-update
 * writes physically switch cells, so they are folded into the cell-
 * switching share here.
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 24: ReRAM tile energy breakdown",
                  "ADC 45.14%, cell switching 40.16%, rest ~14.7%");
    runner.parse(argc, argv, "Fig. 24 reproduction");

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const auto results = runner.runSweep(sweep, 1);
    StatSet total;
    for (const GanModel &model : allBenchmarks())
        total.merge(resultOf(results, model.name, "low").report.stats);

    const double adc = total.get("energy.compute.adc");
    const double cell =
        total.get("energy.compute.cell") + total.get("energy.update");
    const double dac = total.get("energy.compute.dac");
    const double sh = total.get("energy.compute.sh");
    const double driver = total.get("energy.compute.driver");
    const double buffer = total.get("energy.buffer");
    const double tile_total = adc + cell + dac + sh + driver + buffer;

    TextTable table({"component", "share", "paper"});
    auto row = [&](const char *name, double value, const char *paper) {
        table.addRow(
            {name, TextTable::num(100.0 * value / tile_total, 2) + "%",
             paper});
    };
    row("ADC", adc, "45.14%");
    row("cell switching (incl. updates)", cell, "40.16%");
    row("DAC", dac, "-");
    row("sample & hold", sh, "-");
    row("drivers/decoders", driver, "-");
    row("tile buffer", buffer, "-");
    table.print(std::cout);

    std::cout << "\nWith 1-pJ cell switching [66] and a 60% more "
           "efficient ADC [37], the paper projects ~3x power "
           "reduction; here that hypothetical saves "
        << TextTable::num(
               tile_total / (tile_total - 0.95 * cell - 0.6 * adc), 2)
        << "x of tile energy.\n";
    runner.finish();
}
