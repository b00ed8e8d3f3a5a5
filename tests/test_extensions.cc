/**
 * @file
 * Tests for the extension features: heterogeneous per-phase acceleration,
 * interconnect ablation switches, the stride-3 future-GAN workload and
 * traced accelerator runs.
 */

#include <gtest/gtest.h>

#include "core/api.hh"

namespace lergan {
namespace {

TEST(Hetero, DegreeForUsesOverrides)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.phaseDegrees[Phase::DBwdWeight] = ReplicaDegree::High;
    EXPECT_EQ(config.degreeFor(Phase::DBwdWeight), ReplicaDegree::High);
    EXPECT_EQ(config.degreeFor(Phase::GFwd), ReplicaDegree::Low);
}

TEST(Hetero, BoostingOnePhaseLandsBetweenUniformConfigs)
{
    const GanModel model = makeBenchmark("GPGAN");
    AcceleratorConfig low = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    AcceleratorConfig high = AcceleratorConfig::lerGan(ReplicaDegree::High);
    AcceleratorConfig hetero = low;
    hetero.phaseDegrees[Phase::DBwdWeight] = ReplicaDegree::High;
    hetero.phaseDegrees[Phase::GBwdWeight] = ReplicaDegree::High;

    const auto t_low = SimulationSession(low).run(model).iterationTime;
    const auto t_high = SimulationSession(high).run(model).iterationTime;
    const auto t_hetero = SimulationSession(hetero).run(model).iterationTime;
    EXPECT_LE(t_hetero, t_low);
    EXPECT_GE(t_hetero, t_high);

    // Heterogeneous space use also sits between the uniform configs.
    const auto s_low = compileGan(model, low).crossbarsUsed;
    const auto s_high = compileGan(model, high).crossbarsUsed;
    const auto s_hetero = compileGan(model, hetero).crossbarsUsed;
    EXPECT_GE(s_hetero, s_low);
    EXPECT_LE(s_hetero, s_high);
}

TEST(Ablation, DisablingAllWiresMatchesNoAddedConnectivity)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig none = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    none.horizontalWires = false;
    none.verticalWires = false;
    AcceleratorConfig full = AcceleratorConfig::lerGan(ReplicaDegree::Low);

    const auto t_none = SimulationSession(none).run(model).iterationTime;
    const auto t_full = SimulationSession(full).run(model).iterationTime;
    EXPECT_LT(t_full, t_none);
}

TEST(Ablation, VerticalWiresCarryTheInterPhaseTraffic)
{
    const GanModel model = makeBenchmark("DCGAN");
    auto time_with = [&](bool horizontal, bool vertical) {
        AcceleratorConfig config =
            AcceleratorConfig::lerGan(ReplicaDegree::Low);
        config.horizontalWires = horizontal;
        config.verticalWires = vertical;
        return SimulationSession(config).run(model).iterationTime;
    };
    // Vertical-only must recover (nearly) the full-3D time; horizontal-
    // only cannot (forward caches still cross banks via the bus).
    EXPECT_LT(time_with(false, true), time_with(true, false));
}

TEST(FutureGan, Stride3ParsesAndValidates)
{
    const GanModel s3 = futureGanStride3();
    EXPECT_EQ(s3.itemSize, 81);
    for (const LayerSpec &layer : s3.generator) {
        if (layer.kind == LayerKind::TConv) {
            EXPECT_EQ(layer.stride, 3);
            EXPECT_EQ(layer.outSize, layer.inSize * 3);
        }
    }
}

TEST(FutureGan, Stride3HasWorseZeroRatioThanStride2)
{
    const OpZeroStats s2 = analyzeModel(futureGanStride2Control());
    const OpZeroStats s3 = analyzeModel(futureGanStride3());
    EXPECT_LT(s3.multEfficiency(), s2.multEfficiency());
    EXPECT_GT(s3.storageBlowup(), s2.storageBlowup());
}

TEST(FutureGan, Stride3ZfdrCoverageHolds)
{
    const GanModel s3 = futureGanStride3();
    for (Phase phase : kAllPhases) {
        for (const LayerOp &op : opsForPhase(s3, phase)) {
            if (!op.zfdrApplicable())
                continue;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            EXPECT_EQ(analysis.corner.servedPositions +
                          analysis.edge.servedPositions +
                          analysis.inside.servedPositions,
                      analysis.totalPositions)
                << op.label;
        }
    }
}

TEST(FutureGan, Stride3TrainsOnLerGan)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const TrainingReport report =
        SimulationSession(config).run(futureGanStride3());
    EXPECT_GT(report.iterationTime, 0u);
}

TEST(TracedRun, ProducesEventsAndSameResult)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    LerGanAccelerator accelerator(model, config);
    const TrainingReport plain = accelerator.trainIterations();
    Tracer tracer;
    const TrainingReport traced =
        accelerator.trainIterations(1, &tracer);
    EXPECT_EQ(plain.iterationTime, traced.iterationTime);
    EXPECT_EQ(tracer.events().size(),
              static_cast<std::size_t>(plain.stats.get("sim.tasks")));
    EXPECT_FALSE(accelerator.resourceNames().empty());
}

} // namespace
} // namespace lergan
