/**
 * @file
 * Fig. 21 reproduction: LerGAN performance against the FPGA-based GAN
 * accelerator and the GPU platform.
 *
 * Paper: 47.2x over FPGA-GAN and 21.42x over the GPU on average;
 * DiscoGAN gains more (more T-CONVs, bigger nets); MAGAN-MNIST gains
 * least.
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 21: LerGAN vs FPGA-GAN and GPU (speedup)",
                  "avg 47.2x over FPGA-GAN, 21.42x over GPU");
    runner.parse(argc, argv, "Fig. 21 reproduction");

    TextTable table({"benchmark", "LerGAN ms/iter", "vs FPGA-GAN",
                     "vs GPU"});
    Mean m_fpga, m_gpu;
    ExperimentSweep sweep;
    for (const GanModel &model : allBenchmarks())
        sweep.addBenchmark(model);
    sweep.addConfig("high", AcceleratorConfig::lerGan(ReplicaDegree::High));
    const auto results = runner.runSweep(sweep, kIterations);
    for (const GanModel &model : allBenchmarks()) {
        const double lergan =
            resultOf(results, model.name, "high").report.timeMs();
        const double fpga = simulateFpgaGan(model).timeMs();
        const double gpu = simulateGpu(model).timeMs();
        m_fpga.add(fpga / lergan);
        m_gpu.add(gpu / lergan);
        table.addRow({model.name, TextTable::num(lergan, 3),
                      TextTable::num(fpga / lergan) + "x",
                      TextTable::num(gpu / lergan) + "x"});
    }
    table.addRow({"MEAN (paper 47.2 / 21.42)", "",
                  TextTable::num(m_fpga.value()) + "x",
                  TextTable::num(m_gpu.value()) + "x"});
    table.print(std::cout);
    runner.finish();
}
