/**
 * @file
 * Ablation: minibatch-size scaling (the paper fixes batch 64; this
 * checks the pipeline fills and the LerGAN-vs-PRIME gap is not a batch
 * artifact).
 */

#include "bench_util.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Ablation: minibatch scaling on DCGAN",
           "per-item time drops as the pipeline fills; the PRIME gap "
           "persists across batch sizes");

    const GanModel model = makeBenchmark("DCGAN");
    TextTable table({"batch", "LerGAN ms/iter", "LerGAN us/item",
                     "PRIME ms/iter", "speedup"});
    for (int batch : {4, 8, 16, 32, 64, 128}) {
        AcceleratorConfig lergan_cfg =
            AcceleratorConfig::lerGan(ReplicaDegree::High);
        lergan_cfg.batchSize = batch;
        AcceleratorConfig prime_cfg = AcceleratorConfig::prime();
        prime_cfg.batchSize = batch;
        const double lergan =
            SimulationSession(lergan_cfg).run(model).timeMs();
        const double prime = SimulationSession(prime_cfg).run(model).timeMs();
        table.addRow({std::to_string(batch), TextTable::num(lergan, 2),
                      TextTable::num(1e3 * lergan / batch, 1),
                      TextTable::num(prime, 2),
                      TextTable::num(prime / lergan) + "x"});
    }
    table.print(std::cout);
    return 0;
}
