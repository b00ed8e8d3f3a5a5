/**
 * @file
 * Integration tests: full training-iteration simulations across
 * configurations, checking the structural properties the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/api.hh"

namespace lergan {
namespace {

AcceleratorConfig
configOf(Connection conn, ReshapeMode reshape, bool dup,
         ReplicaDegree degree = ReplicaDegree::Low)
{
    AcceleratorConfig config;
    config.connection = conn;
    config.reshape = reshape;
    config.duplicate = dup;
    config.degree = degree;
    return config;
}

TEST(Accelerator, IterationCompletesAndReports)
{
    const GanModel model = makeBenchmark("cGAN");
    const TrainingReport report =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::Low))
            .run(model);
    EXPECT_GT(report.iterationTime, 0u);
    EXPECT_GT(report.totalEnergyPj(), 0.0);
    EXPECT_GT(report.computeEnergyPj(), 0.0);
    EXPECT_GT(report.commEnergyPj(), 0.0);
    EXPECT_GT(report.stats.get("energy.update"), 0.0);
    EXPECT_GT(report.stats.get("sim.tasks"), 1000.0);
    EXPECT_EQ(report.benchmark, "cGAN");
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    const GanModel model = makeBenchmark("cGAN");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const TrainingReport a = acc.trainIterations();
    const TrainingReport b = acc.trainIterations();
    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_DOUBLE_EQ(a.totalEnergyPj(), b.totalEnergyPj());
}

TEST(Accelerator, ThreeDBeatsHTreeWithZfdr)
{
    // Fig. 17: with ZFDR, the 3D connection clearly beats H-tree.
    for (const char *name : {"DCGAN", "cGAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport htree =
            SimulationSession(
                configOf(Connection::HTree, ReshapeMode::Zfdr, false))
                .run(model);
        const TrainingReport three_d =
            SimulationSession(
                configOf(Connection::ThreeD, ReshapeMode::Zfdr, false))
                .run(model);
        EXPECT_LT(three_d.iterationTime, htree.iterationTime) << name;
    }
}

TEST(Accelerator, ZfdrBeatsNormalReshapeOn3D)
{
    // Fig. 18: with the 3D connection, ZFDR beats normal reshaping.
    for (const char *name : {"DCGAN", "cGAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport zfdr =
            SimulationSession(
                configOf(Connection::ThreeD, ReshapeMode::Zfdr, false))
                .run(model);
        const TrainingReport normal =
            SimulationSession(
                configOf(Connection::ThreeD, ReshapeMode::Normal, false))
                .run(model);
        EXPECT_LT(zfdr.iterationTime, normal.iterationTime) << name;
    }
}

TEST(Accelerator, DuplicationHelpsMoreOn3DThanHTree)
{
    // Fig. 17's second finding: duplication gains little on H-tree
    // (I/O-bound) but much more on the 3D connection.
    const GanModel model = makeBenchmark("DCGAN");
    const double gain_2d =
        static_cast<double>(
            SimulationSession(
                configOf(Connection::HTree, ReshapeMode::Zfdr, false))
                .run(model)
                .iterationTime) /
        SimulationSession(configOf(Connection::HTree, ReshapeMode::Zfdr,
                                   true, ReplicaDegree::High))
            .run(model)
            .iterationTime;
    const double gain_3d =
        static_cast<double>(
            SimulationSession(
                configOf(Connection::ThreeD, ReshapeMode::Zfdr, false))
                .run(model)
                .iterationTime) /
        SimulationSession(configOf(Connection::ThreeD, ReshapeMode::Zfdr,
                                   true, ReplicaDegree::High))
            .run(model)
            .iterationTime;
    EXPECT_GT(gain_3d, gain_2d);
}

TEST(Accelerator, LerGanBeatsPrimeOnTconvHeavyGans)
{
    // Fig. 19's headline: LerGAN > PRIME wherever T-CONVs dominate.
    for (const char *name : {"DCGAN", "cGAN", "3D-GAN", "GPGAN"}) {
        const GanModel model = makeBenchmark(name);
        const TrainingReport lergan =
            SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::Low))
                .run(model);
        const TrainingReport prime =
            SimulationSession(AcceleratorConfig::prime()).run(model);
        EXPECT_LT(lergan.iterationTime, prime.iterationTime) << name;
        EXPECT_LT(lergan.totalEnergyPj(), prime.totalEnergyPj()) << name;
    }
}

TEST(Accelerator, HigherDuplicationFasterButMoreEnergy)
{
    // Fig. 19/20: LerGAN-high gains speed over LerGAN-low at an energy
    // cost (more replicas to keep updated).
    const GanModel model = makeBenchmark("GPGAN");
    const TrainingReport low =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::Low))
            .run(model);
    const TrainingReport high =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::High))
            .run(model);
    EXPECT_LE(high.iterationTime, low.iterationTime);
    EXPECT_GT(high.stats.get("energy.update"),
              low.stats.get("energy.update"));
}

TEST(Accelerator, EnergyBreakdownSumsToTotal)
{
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport report =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::Low))
            .run(model);
    const double parts = report.computeEnergyPj() + report.commEnergyPj() +
                         report.stats.get("energy.buffer") +
                         report.stats.get("energy.storage") +
                         report.stats.get("energy.update") +
                         report.stats.get("energy.control");
    EXPECT_NEAR(parts, report.totalEnergyPj(),
                1e-6 * report.totalEnergyPj());
}

TEST(Accelerator, ComputeDominatesLerGanEnergy)
{
    // Fig. 23: computing is the dominant share (70.4% in the paper).
    const GanModel model = makeBenchmark("DCGAN");
    const TrainingReport report =
        SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::Low))
            .run(model);
    const double share =
        report.computeEnergyPj() / report.totalEnergyPj();
    EXPECT_GT(share, 0.5);
    EXPECT_LT(share, 0.9);
}

TEST(Accelerator, MaganGainsLittle)
{
    // The all-FC discriminator and near-dense generator of MAGAN-MNIST
    // leave ZFDR little to remove (Sec. VI-C).
    const GanModel magan = makeBenchmark("MAGAN-MNIST");
    auto ratio = [](const GanModel &m) {
        const auto lergan =
            SimulationSession(AcceleratorConfig::lerGan(ReplicaDegree::High))
                .run(m);
        const auto prime =
            SimulationSession(AcceleratorConfig::prime()).run(m);
        return static_cast<double>(prime.iterationTime) /
               lergan.iterationTime;
    };
    double sum = 0;
    int n = 0;
    for (const GanModel &model : allBenchmarks()) {
        if (model.name == "MAGAN-MNIST")
            continue;
        sum += ratio(model);
        ++n;
    }
    EXPECT_LT(ratio(magan), sum / n);
}

TEST(Accelerator, IterationsScaleTotals)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const TrainingReport ten = acc.trainIterations(10);
    EXPECT_DOUBLE_EQ(ten.stats.get("total.iterations"), 10.0);
    EXPECT_NEAR(ten.stats.get("total.time_ms"), 10 * ten.timeMs(), 1e-9);
}

TEST(Accelerator, SmallerBatchRunsFaster)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig small = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    small.batchSize = 8;
    AcceleratorConfig big = small;
    big.batchSize = 64;
    EXPECT_LT(SimulationSession(small).run(model).iterationTime,
              SimulationSession(big).run(model).iterationTime);
}

TEST(Accelerator, TemplateReplayMatchesRebuild)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);

    // A template built by one accelerator, replayed by another of the
    // same (model, config) pair, must reproduce the rebuild path
    // exactly: simulated time, every stat, the trace and the metrics.
    LerGanAccelerator maker(model, config);
    const auto tmpl = maker.makeIterationTemplate();

    LerGanAccelerator rebuilt(model, config);
    LerGanAccelerator replayed(model, config);
    Tracer rebuiltTrace, replayedTrace;
    MetricsRegistry rebuiltMetrics, replayedMetrics;
    const TrainingReport a = rebuilt.trainIterations(
        10, &rebuiltTrace, &rebuiltMetrics, nullptr);
    const TrainingReport b = replayed.trainIterations(
        10, &replayedTrace, &replayedMetrics, tmpl.get());

    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_DOUBLE_EQ(a.totalEnergyPj(), b.totalEnergyPj());

    std::ostringstream aSummary, bSummary;
    a.stats.print(aSummary);
    b.stats.print(bSummary);
    EXPECT_EQ(aSummary.str(), bSummary.str());

    std::ostringstream aProm, bProm;
    rebuiltMetrics.snapshot().writePrometheus(aProm);
    replayedMetrics.snapshot().writePrometheus(bProm);
    EXPECT_EQ(aProm.str(), bProm.str());

    ASSERT_EQ(rebuiltTrace.events().size(), replayedTrace.events().size());
    for (std::size_t i = 0; i < rebuiltTrace.events().size(); ++i) {
        const TraceEvent &x = rebuiltTrace.events()[i];
        const TraceEvent &y = replayedTrace.events()[i];
        ASSERT_EQ(rebuiltTrace.label(x), replayedTrace.label(y))
            << "trace event " << i;
        ASSERT_EQ(x.start, y.start) << "trace event " << i;
        ASSERT_EQ(x.end, y.end) << "trace event " << i;
        ASSERT_EQ(x.lane, y.lane) << "trace event " << i;
    }
}

TEST(Accelerator, TemplateReplayIsRepeatable)
{
    // Replaying the same template many times on one accelerator (the
    // sweep's steady state, reusing its ExecScratch) never drifts.
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    LerGanAccelerator acc(model, config);
    const auto tmpl = acc.makeIterationTemplate();
    const TrainingReport first =
        acc.trainIterations(1, nullptr, nullptr, tmpl.get());
    for (int i = 0; i < 3; ++i) {
        const TrainingReport next =
            acc.trainIterations(1, nullptr, nullptr, tmpl.get());
        EXPECT_EQ(next.iterationTime, first.iterationTime);
        EXPECT_DOUBLE_EQ(next.totalEnergyPj(), first.totalEnergyPj());
    }
}

TEST(Accelerator, LedgerKeysFollowTheFabric)
{
    // An H-tree (PRIME) machine never charges added wires, so its report
    // has no energy.comm.added key at all while a 3D one does; with
    // telemetry attached, both create every per-link-kind flit counter.
    const GanModel model = makeBenchmark("cGAN");
    for (AcceleratorConfig config :
         {AcceleratorConfig::prime(),
          AcceleratorConfig::lerGan(ReplicaDegree::Low)}) {
        config.batchSize = 4;
        const bool three_d = config.connection == Connection::ThreeD;
        LerGanAccelerator acc(model, config);
        MetricsRegistry metrics;
        const TrainingReport report =
            acc.trainIterations(1, nullptr, &metrics);
        EXPECT_EQ(report.stats.has("energy.comm.added"), three_d);
        EXPECT_EQ(report.stats.has("energy.comm.bypass"), three_d);
        EXPECT_TRUE(report.stats.has("energy.comm.htree"));

        const MetricsSnapshot snapshot = metrics.snapshot();
        for (const char *name :
             {"ic.htree.wire.flits", "ic.added.h.flits", "ic.added.v.flits",
              "ic.bypass.flits", "ic.bus.flits"})
            EXPECT_EQ(snapshot.counters.count(name), 1u) << name;
        EXPECT_EQ(snapshot.counters.at("ic.added.v.flits") > 0, three_d);
        EXPECT_EQ(snapshot.counters.at("ctrl.transitions"), 4u);
        EXPECT_EQ(snapshot.counters.count("ctrl.enter.idle"), 0u);
        EXPECT_EQ(snapshot.counters.at("ctrl.enter.train_gen"), 1u);
    }
}

TEST(Accelerator, AllBenchmarksRunOnAllConnections)
{
    for (const GanModel &model : allBenchmarks()) {
        for (Connection conn : {Connection::HTree, Connection::ThreeD}) {
            AcceleratorConfig config =
                AcceleratorConfig::lerGan(ReplicaDegree::Low);
            config.connection = conn;
            config.batchSize = 4; // keep the sweep fast
            const TrainingReport report =
                SimulationSession(config).run(model);
            EXPECT_GT(report.iterationTime, 0u)
                << model.name << " " << report.config;
        }
    }
}

} // namespace
} // namespace lergan
