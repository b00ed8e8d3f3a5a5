/**
 * @file
 * Ablation: item-size scaling of a DCGAN-shaped GAN (8x8 up to 128x128).
 *
 * Bigger items mean more zero-insertion work, more inter-phase cache
 * traffic and more CArray pressure; the LerGAN-over-PRIME advantage
 * should persist (the paper's "bigger GANs favor PIM" argument from
 * Fig. 21's DiscoGAN discussion).
 */

#include "bench_util.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Ablation: item-size scaling (DCGAN-shaped)",
           "LerGAN's advantage persists as items grow");

    TextTable table({"item", "weights", "LerGAN ms", "PRIME ms",
                     "speedup", "energy saving"});
    const SimulationSession lergan_session(
        AcceleratorConfig::lerGan(ReplicaDegree::High));
    const SimulationSession prime_session(AcceleratorConfig::prime());
    for (int item : {8, 16, 32, 64, 128}) {
        const GanModel model = dcganScaled(item);
        const TrainingReport lergan = lergan_session.run(model);
        const TrainingReport prime = prime_session.run(model);
        table.addRow({std::to_string(item),
                      std::to_string(model.totalWeights()),
                      TextTable::num(lergan.timeMs(), 2),
                      TextTable::num(prime.timeMs(), 2),
                      TextTable::num(prime.timeMs() / lergan.timeMs()) +
                          "x",
                      TextTable::num(prime.totalEnergyPj() /
                                     lergan.totalEnergyPj()) +
                          "x"});
    }
    table.print(std::cout);
    return 0;
}
