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

    TextTable table({"benchmark", "low", "middle", "high",
                     "low-NS"});
    Mean m_low, m_mid, m_high, m_ns;
    const SimulationSession prime_session(AcceleratorConfig::prime());
    for (const GanModel &model : allBenchmarks()) {
        const double prime =
            prime_session.run(model).totalEnergyPj();
        auto saving = [&](const AcceleratorConfig &config) {
            const SimulationSession session(config);
            return prime / session.run(model).totalEnergyPj();
        };
        const double low =
            saving(AcceleratorConfig::lerGan(ReplicaDegree::Low));
        const double mid =
            saving(AcceleratorConfig::lerGan(ReplicaDegree::Middle));
        const double high =
            saving(AcceleratorConfig::lerGan(ReplicaDegree::High));
        const double ns = saving(lerGanLowNs(model));
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
