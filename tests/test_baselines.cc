/**
 * @file
 * Tests for the GPU / FPGA analytical baselines and the PRIME wrapper,
 * including the cross-platform ordering the paper reports.
 */

#include <gtest/gtest.h>

#include "baselines/fpga_gan.hh"
#include "baselines/gpu.hh"
#include "baselines/prime.hh"
#include "core/api.hh"

namespace lergan {
namespace {

TEST(Gpu, ReportsPlausibleIteration)
{
    const TrainingReport gpu = simulateGpu(makeBenchmark("DCGAN"));
    EXPECT_GT(gpu.timeMs(), 1.0);
    EXPECT_LT(gpu.timeMs(), 60000.0);
    EXPECT_GT(gpu.totalEnergyPj(), 0.0);
    EXPECT_EQ(gpu.config, "GPU");
}

TEST(Gpu, PaysForZeros)
{
    // The GPU computes dense zero-inserted grids, so its flop count far
    // exceeds the useful work on T-CONV-heavy GANs.
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport gpu = simulateGpu(model);
    OpZeroStats useful;
    for (Phase phase : kAllPhases)
        useful += analyzePhase(model, phase);
    EXPECT_GT(gpu.stats.get("gpu.flops"),
              2.0 * static_cast<double>(useful.usefulMults) * 64);
}

TEST(Gpu, FasterWithMoreUtilization)
{
    const GanModel model = makeBenchmark("DCGAN");
    GpuParams fast;
    fast.utilization = 0.9;
    GpuParams slow;
    slow.utilization = 0.1;
    EXPECT_LT(simulateGpu(model, fast).iterationTime,
              simulateGpu(model, slow).iterationTime);
}

TEST(Fpga, SkipsZeros)
{
    // FPGA-GAN executes only useful MACs (Song et al. dataflow).
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport fpga = simulateFpgaGan(model);
    const TrainingReport gpu = simulateGpu(model);
    EXPECT_LT(fpga.stats.get("fpga.macs") * 2.0,
              gpu.stats.get("gpu.flops"));
}

TEST(Fpga, SlowerThanGpuButFrugal)
{
    // Fig. 21/22: the FPGA is the slowest platform but the most
    // energy-proportional one.
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport fpga = simulateFpgaGan(model);
    const TrainingReport gpu = simulateGpu(model);
    EXPECT_GT(fpga.iterationTime, gpu.iterationTime);
    EXPECT_LT(fpga.totalEnergyPj(), gpu.totalEnergyPj());
}

TEST(Prime, WrapperMatchesConfig)
{
    const GanModel model = makeBenchmark("cGAN");
    const TrainingReport direct =
        SimulationSession(AcceleratorConfig::prime()).run(model);
    const TrainingReport wrapped = simulatePrime(model);
    EXPECT_EQ(wrapped.iterationTime, direct.iterationTime);
    EXPECT_EQ(wrapped.config, "PRIME");
}

TEST(Prime, NsConsumesBudget)
{
    const GanModel model = makeBenchmark("cGAN");
    const TrainingReport base = simulatePrime(model);
    const TrainingReport ns =
        simulatePrimeNs(model, base.crossbarsUsed * 6);
    EXPECT_GT(ns.crossbarsUsed, base.crossbarsUsed);
    EXPECT_LE(ns.iterationTime, base.iterationTime);
}

TEST(CrossPlatform, PaperOrderingHolds)
{
    // Fig. 21: LerGAN fastest, then GPU, then FPGA-GAN; PRIME sits
    // between LerGAN and the GPU on T-CONV-heavy GANs.
    for (const char *name : {"DCGAN", "GPGAN", "DiscoGAN-4pairs"}) {
        const GanModel model = makeBenchmark(name);
        const auto lergan =
            SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::High))
                .run(model);
        const auto prime = simulatePrime(model);
        const auto gpu = simulateGpu(model);
        const auto fpga = simulateFpgaGan(model);
        EXPECT_LT(lergan.iterationTime, prime.iterationTime) << name;
        EXPECT_LT(lergan.iterationTime, gpu.iterationTime) << name;
        EXPECT_LT(gpu.iterationTime, fpga.iterationTime) << name;
    }
}

TEST(CrossPlatform, EnergyNearFpgaParity)
{
    // Fig. 22: LerGAN's energy lands within ~2x of FPGA-GAN (the paper
    // reports 1.04x on average) while being tens of times faster.
    const GanModel model = makeBenchmark("DCGAN");
    const auto lergan =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::High))
            .run(model);
    const auto fpga = simulateFpgaGan(model);
    const double ratio = lergan.totalEnergyPj() / fpga.totalEnergyPj();
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
    EXPECT_GT(static_cast<double>(fpga.iterationTime) /
                  lergan.iterationTime,
              10.0);
}

} // namespace
} // namespace lergan
