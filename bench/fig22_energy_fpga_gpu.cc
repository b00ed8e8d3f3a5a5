/**
 * @file
 * Fig. 22 reproduction: LerGAN energy against FPGA-GAN and the GPU.
 *
 * Paper: 9.75x saving over the GPU; roughly energy parity with the
 * FPGA accelerator (LerGAN consumes 1.04x FPGA-GAN's energy on
 * average, losing slightly on big GANs and MAGAN).
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 22: LerGAN vs FPGA-GAN and GPU (energy saving)",
                  "9.75x over GPU; 1/1.04x (near parity) vs FPGA-GAN");
    runner.parse(argc, argv, "Fig. 22 reproduction");

    TextTable table({"benchmark", "LerGAN mJ/iter", "vs FPGA-GAN",
                     "vs GPU"});
    Mean m_fpga, m_gpu;
    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("high", AcceleratorConfig::lerGan(ReplicaDegree::High));
    const auto results = runner.runSweep(sweep, 1);
    for (const GanModel &model : allBenchmarks()) {
        const double lergan =
            resultOf(results, model.name, "high").report.totalEnergyPj();
        const double fpga = simulateFpgaGan(model).totalEnergyPj();
        const double gpu = simulateGpu(model).totalEnergyPj();
        m_fpga.add(fpga / lergan);
        m_gpu.add(gpu / lergan);
        table.addRow({model.name,
                      TextTable::num(pjToMj(lergan), 1),
                      TextTable::num(fpga / lergan) + "x",
                      TextTable::num(gpu / lergan) + "x"});
    }
    table.addRow({"MEAN (paper 0.96 / 9.75)", "",
                  TextTable::num(m_fpga.value()) + "x",
                  TextTable::num(m_gpu.value()) + "x"});
    table.print(std::cout);
    runner.finish();
}
