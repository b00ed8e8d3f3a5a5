/**
 * @file
 * Fig. 17 reproduction: full-training performance of the 3D connection
 * versus the H-tree, all configurations using ZFDR.
 *
 * Paper: with H-tree the ZFDR speedup "almost disappears" (transfers
 * dominate); the 3D connection makes it visible, and duplication only
 * pays off on the 3D connection.
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 17: 3D connection vs H-tree (all with ZFDR)",
                  "speedups normalized to 2D+ZFDR(nodup); duplication helps "
                  "little on H-tree, a lot on 3D");
    runner.parse(argc, argv, "Fig. 17 reproduction");

    TextTable table({"benchmark", "2D nodup (base)", "2D dup",
                     "3D nodup", "3D dup"});
    Mean m2dup, m3nodup, m3dup;
    for (const GanModel &model : allBenchmarks()) {
        const auto ms = [&](const AcceleratorConfig &config) {
            return SimulationSession(config).run(model).timeMs();
        };
        const double base = ms(makeConfig(
            Connection::HTree, ReshapeMode::Zfdr, false));
        const double dup_2d =
            ms(makeConfig(Connection::HTree, ReshapeMode::Zfdr,
                          true, ReplicaDegree::High));
        const double nodup_3d = ms(makeConfig(
            Connection::ThreeD, ReshapeMode::Zfdr, false));
        const double dup_3d =
            ms(makeConfig(Connection::ThreeD, ReshapeMode::Zfdr,
                          true, ReplicaDegree::High));
        m2dup.add(base / dup_2d);
        m3nodup.add(base / nodup_3d);
        m3dup.add(base / dup_3d);
        table.addRow({model.name, "1.00x",
                      TextTable::num(base / dup_2d) + "x",
                      TextTable::num(base / nodup_3d) + "x",
                      TextTable::num(base / dup_3d) + "x"});
    }
    table.addRow({"MEAN", "1.00x",
                  TextTable::num(m2dup.value()) + "x",
                  TextTable::num(m3nodup.value()) + "x",
                  TextTable::num(m3dup.value()) + "x"});
    table.print(std::cout);
    runner.finish();
}
