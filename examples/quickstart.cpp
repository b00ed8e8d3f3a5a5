/**
 * @file
 * Quickstart: simulate one DCGAN training iteration on LerGAN and on the
 * baselines, and print where the time and energy go.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "baselines/fpga_gan.hh"
#include "baselines/gpu.hh"
#include "baselines/prime.hh"
#include "core/api.hh"

int
main()
{
    using namespace lergan;

    // 1. Pick a benchmark (any Table V name, or parse your own topology
    //    with parseGan()).
    const GanModel dcgan = makeBenchmark("DCGAN");
    std::cout << "Loaded " << dcgan.name << ": "
              << dcgan.generator.size() << " generator layers, "
              << dcgan.discriminator.size() << " discriminator layers, "
              << dcgan.totalWeights() << " weights\n\n";

    // 2. Simulate LerGAN (3D connection + ZFDR, low duplication).
    const AcceleratorConfig lergan_cfg =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    const TrainingReport lergan = SimulationSession(lergan_cfg).run(dcgan);
    lergan.print(std::cout);

    // 3. Simulate the PIM baseline (PRIME: H-tree + normal reshape).
    const TrainingReport prime = simulatePrime(dcgan);
    prime.print(std::cout);

    // 4. Analytical GPU and FPGA baselines.
    const TrainingReport gpu = simulateGpu(dcgan);
    gpu.print(std::cout);
    const TrainingReport fpga = simulateFpgaGan(dcgan);
    fpga.print(std::cout);

    // 5. Compare.
    std::cout << "\nLerGAN speedup over PRIME: "
              << prime.timeMs() / lergan.timeMs() << "x\n";
    std::cout << "LerGAN speedup over GPU:   "
              << gpu.timeMs() / lergan.timeMs() << "x\n";
    std::cout << "LerGAN speedup over FPGA:  "
              << fpga.timeMs() / lergan.timeMs() << "x\n";
    std::cout << "LerGAN energy saving vs PRIME: "
              << prime.totalEnergyPj() / lergan.totalEnergyPj() << "x\n";

    // 6. Energy breakdown of the LerGAN run (Fig. 23 style).
    std::cout << "\nLerGAN energy breakdown:\n";
    const double total = lergan.totalEnergyPj();
    std::cout << "  compute:       "
              << 100.0 * lergan.computeEnergyPj() / total << "%\n";
    std::cout << "  communication: "
              << 100.0 * lergan.commEnergyPj() / total << "%\n";
    std::cout << "  buffer/storage: "
              << 100.0 *
                     (lergan.stats.get("energy.buffer") +
                      lergan.stats.get("energy.storage")) /
                     total
              << "%\n";
    std::cout << "  update:        "
              << 100.0 * lergan.stats.get("energy.update") / total << "%\n";
    return 0;
}
