/**
 * @file
 * Ablation: which added wires of the 3D connection matter (a design-
 * choice breakdown DESIGN.md calls out; the paper evaluates the combined
 * design only).
 *
 * Vertical wires serve the inter-phase dataflows (forward caches feeding
 * the backward banks); horizontal wires shortcut intra-bank H-tree
 * detours. Expectation: vertical wires carry most of the benefit,
 * horizontal wires add a smaller but consistent slice.
 */

#include "bench_util.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Ablation: 3D connection wire families",
           "not in the paper; decomposes Fig. 17's 3D gain");

    TextTable table({"benchmark", "no added wires", "+horizontal only",
                     "+vertical only", "full 3D"});
    Mean m_h, m_v, m_full;
    for (const GanModel &model : allBenchmarks()) {
        auto time_with = [&](bool horizontal, bool vertical) {
            AcceleratorConfig config =
                AcceleratorConfig::lerGan(ReplicaDegree::High);
            config.horizontalWires = horizontal;
            config.verticalWires = vertical;
            return SimulationSession(config).run(model).timeMs();
        };
        const double none = time_with(false, false);
        const double h_only = time_with(true, false);
        const double v_only = time_with(false, true);
        const double full = time_with(true, true);
        m_h.add(none / h_only);
        m_v.add(none / v_only);
        m_full.add(none / full);
        table.addRow({model.name, "1.00x",
                      TextTable::num(none / h_only) + "x",
                      TextTable::num(none / v_only) + "x",
                      TextTable::num(none / full) + "x"});
    }
    table.addRow({"MEAN", "1.00x", TextTable::num(m_h.value()) + "x",
                  TextTable::num(m_v.value()) + "x",
                  TextTable::num(m_full.value()) + "x"});
    table.print(std::cout);
    return 0;
}
