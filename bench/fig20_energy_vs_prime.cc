/**
 * @file
 * Fig. 20 reproduction: LerGAN energy saving over PRIME across
 * duplication degrees.
 *
 * Paper: 7.68x average saving; LerGAN-low-NS reaches 28.47x; more
 * duplication saves less energy (more update writes and switching).
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 20: LerGAN vs PRIME (energy saving)",
                  "avg 7.68x; low-NS up to 28.47x; saving shrinks as "
                  "duplication grows");
    runner.parse(argc, argv, "Fig. 20 reproduction");

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("prime", AcceleratorConfig::prime())
        .addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low))
        .addConfig("middle",
                   AcceleratorConfig::lerGan(ReplicaDegree::Middle))
        .addConfig("high", AcceleratorConfig::lerGan(ReplicaDegree::High));
    for (const GanModel &model : allBenchmarks())
        sweep.addPoint(model, "low-NS", lerGanLowNs(model));
    const auto results = runner.runSweep(sweep, 1);

    TextTable table({"benchmark", "low", "middle", "high",
                     "low-NS"});
    Mean m_low, m_mid, m_high, m_ns;
    for (const GanModel &model : allBenchmarks()) {
        const auto energy = [&](const char *config) {
            return resultOf(results, model.name, config)
                .report.totalEnergyPj();
        };
        const double prime = energy("prime");
        const double low = prime / energy("low");
        const double mid = prime / energy("middle");
        const double high = prime / energy("high");
        const double ns = prime / energy("low-NS");
        m_low.add(low);
        m_mid.add(mid);
        m_high.add(high);
        m_ns.add(ns);
        table.addRow({model.name, TextTable::num(low) + "x",
                      TextTable::num(mid) + "x",
                      TextTable::num(high) + "x",
                      TextTable::num(ns) + "x"});
    }
    table.addRow({"MEAN", TextTable::num(m_low.value()) + "x",
                  TextTable::num(m_mid.value()) + "x",
                  TextTable::num(m_high.value()) + "x",
                  TextTable::num(m_ns.value()) + "x"});
    table.print(std::cout);
    runner.finish();
}
