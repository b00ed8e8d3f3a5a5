/**
 * @file
 * Sec. VI-E reproduction: software and hardware overheads of LerGAN.
 *
 * Paper: ZFDR/ZFDM compilation costs 32.52% extra compile time (minutes,
 * negligible against days of training); the added switches and wires
 * cost 13.3% area versus PRIME, justified by a 2.1x speedup at equal
 * space.
 */

#include "bench_util.hh"

#include "interconnect/three_d.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Sec. VI-E: overheads",
           "compile +32.52%; area +13.3%; 2.1x speedup at equal space");

    // Software: compile-time overhead of the zero-free flow.
    TextTable sw({"benchmark", "traditional (s)", "LerGAN (s)",
                  "overhead"});
    Mean m_compile, m_space;
    for (const GanModel &model : allBenchmarks()) {
        const CompiledGan compiled = compileGan(
            model, AcceleratorConfig::lerGan(ReplicaDegree::Middle));
        const double overhead =
            compiled.compileMs / compiled.compileMsTraditional - 1.0;
        m_compile.add(overhead);
        sw.addRow({model.name,
                   TextTable::num(compiled.compileMsTraditional / 1e3, 1),
                   TextTable::num(compiled.compileMs / 1e3, 1),
                   TextTable::num(100 * overhead, 1) + "%"});
    }
    sw.print(std::cout);
    std::cout << "mean compile overhead: "
              << TextTable::num(100 * m_compile.value(), 2)
              << "% (paper: 32.52%)\n\n";

    // Hardware: area overhead of the 3D connection.
    const AreaModel area = areaModel3dcu(ReRamParams{});
    std::cout << "area overhead of the 3D connection: "
              << TextTable::num(100 * area.overhead(), 1)
              << "% (paper: 13.3%)\n\n";

    // Equal-space speedup: LerGAN-low-NS vs PRIME.
    TextTable ns({"benchmark", "equal-space speedup"});
    for (const GanModel &model : allBenchmarks()) {
        const double prime =
            SimulationSession(AcceleratorConfig::prime()).run(model).timeMs();
        const double lergan =
            SimulationSession(lerGanLowNs(model)).run(model).timeMs();
        m_space.add(prime / lergan);
        ns.addRow({model.name, TextTable::num(prime / lergan) + "x"});
    }
    ns.print(std::cout);
    std::cout << "mean equal-space speedup: "
              << TextTable::num(m_space.value())
              << "x (paper: 2.1x)\n";
    return 0;
}
