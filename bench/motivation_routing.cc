/**
 * @file
 * Sec. III-B motivation (Fig. 9) made quantitative: how long are the
 * wire routes GAN-training dataflows actually take on H-tree banks
 * versus the 3D connection?
 *
 * Measured as bytes-weighted average hops per transferred byte
 * (traffic.byte_hops / traffic.bytes over a simulated iteration).
 */

#include "bench_util.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Motivation (Fig. 9): routing length of GAN dataflows",
           "H-tree mappings 'suffer from long routings'; the 3D "
           "connection shortens them");

    TextTable table({"benchmark", "2D hops/byte", "3D hops/byte",
                     "shortening"});
    Mean mean;
    for (const GanModel &model : allBenchmarks()) {
        auto hops = [&](Connection conn) {
            AcceleratorConfig config =
                AcceleratorConfig::lerGan(ReplicaDegree::Low);
            config.connection = conn;
            config.batchSize = 8; // routing mix is batch-independent
            const TrainingReport report =
                SimulationSession(config).run(model);
            return report.stats.get("traffic.byte_hops") /
                   report.stats.get("traffic.bytes");
        };
        const double h2d = hops(Connection::HTree);
        const double h3d = hops(Connection::ThreeD);
        mean.add(h2d / h3d);
        table.addRow({model.name, TextTable::num(h2d),
                      TextTable::num(h3d),
                      TextTable::num(h2d / h3d) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nmean route shortening: " << TextTable::num(mean.value())
              << "x\n";
    return 0;
}
