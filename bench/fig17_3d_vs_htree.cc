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

    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("2d-nodup",
                    makeConfig(Connection::HTree, ReshapeMode::Zfdr, false))
        .addConfig("2d-dup", makeConfig(Connection::HTree, ReshapeMode::Zfdr,
                                        true, ReplicaDegree::High))
        .addConfig("3d-nodup",
                   makeConfig(Connection::ThreeD, ReshapeMode::Zfdr, false))
        .addConfig("3d-dup", makeConfig(Connection::ThreeD, ReshapeMode::Zfdr,
                                        true, ReplicaDegree::High));
    const auto results = runner.runSweep(sweep, 1);

    TextTable table({"benchmark", "2D nodup (base)", "2D dup",
                     "3D nodup", "3D dup"});
    Mean m2dup, m3nodup, m3dup;
    for (const GanModel &model : allBenchmarks()) {
        const auto ms = [&](const char *config) {
            return resultOf(results, model.name, config).report.timeMs();
        };
        const double base = ms("2d-nodup");
        const double dup_2d = ms("2d-dup");
        const double nodup_3d = ms("3d-nodup");
        const double dup_3d = ms("3d-dup");
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
