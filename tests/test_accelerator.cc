/**
 * @file
 * Integration tests: full training-iteration simulations across
 * configurations, checking the structural properties the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

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

TEST(Accelerator, TemplatesOfLikeMachinesShareTheirNameList)
{
    // Every LerGAN degree builds the same 3D machine, so their templates
    // share one name list; PRIME's H-tree machine has its own. Each list
    // is its machine's pool names.
    const GanModel model = makeBenchmark("DCGAN");
    LerGanAccelerator low(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    LerGanAccelerator high(model,
                           AcceleratorConfig::lerGan(ReplicaDegree::High));
    LerGanAccelerator prime(model, AcceleratorConfig::prime());
    const auto lowTmpl = low.makeIterationTemplate();
    const auto highTmpl = high.makeIterationTemplate();
    const auto primeTmpl = prime.makeIterationTemplate();
    EXPECT_EQ(lowTmpl->resourceNames, highTmpl->resourceNames);
    EXPECT_NE(lowTmpl->resourceNames, primeTmpl->resourceNames);
    EXPECT_EQ(*lowTmpl->resourceNames, low.resourceNames());
    EXPECT_EQ(*primeTmpl->resourceNames, prime.resourceNames());
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

/** FNV-1a over the bytes a template build writes. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i)
            hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
    void word(std::uint64_t value) { bytes(&value, sizeof value); }
    void
    text(std::string_view value)
    {
        word(value.size());
        bytes(value.data(), value.size());
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

/**
 * Every byte an iteration template's build decides: each task's kind,
 * phase, label, duration, resource list and dependency count, the frozen
 * successor CSR (which fixes the firing order), and each ledger
 * quantity's has-bit and value bits.
 */
std::uint64_t
templateDigest(const IterationTemplate &tmpl)
{
    const TaskGraph &graph = tmpl.graph;
    Fnv fnv;
    fnv.word(graph.size());
    for (TaskId id = 0; id < graph.size(); ++id) {
        fnv.word(static_cast<std::uint64_t>(graph.kind(id)));
        fnv.word(static_cast<std::uint64_t>(graph.phase(id)));
        fnv.text(graph.label(id));
        fnv.word(graph.duration(id));
        fnv.word(graph.resources(id).size());
        for (const std::uint32_t rid : graph.resources(id))
            fnv.word(rid);
        fnv.word(graph.dependencyCount(id));
    }
    const SuccessorCsr csr = graph.successorCsr();
    for (const std::uint32_t start : csr.start)
        fnv.word(start);
    for (const std::uint32_t id : csr.ids)
        fnv.word(id);
    for (std::size_t i = 0; i < kNumQuantities; ++i) {
        const auto q = static_cast<Quantity>(i);
        fnv.word(tmpl.ledger.has(q) ? 1 : 0);
        fnv.word(std::bit_cast<std::uint64_t>(tmpl.ledger.value(q)));
    }
    return fnv.value();
}

TEST(TemplateBuild, DigestsArePinned)
{
    // The oracle of the template build: a change to how a template is
    // built (not to what it models) must leave every digest as it is.
    // The cases cover the Table V pairs, batches too small to repeat an
    // item (1) or to repeat it more than once (2, 3), and a mapping
    // routed around killed tiles.
    struct Case {
        std::string model;
        AcceleratorConfig config;
        std::uint64_t digest;
    };
    const AcceleratorConfig configs[] = {
        AcceleratorConfig::prime(),
        AcceleratorConfig::lerGan(ReplicaDegree::Low),
        AcceleratorConfig::lerGan(ReplicaDegree::Middle),
        AcceleratorConfig::lerGan(ReplicaDegree::High)};
    // allBenchmarks() order, by configs[] order.
    const std::uint64_t tableV[8][4] = {
        {0x0a962b37310c2359, 0x0e0711cd8bba0378,
         0x2d2059fc20329790, 0x02eb253f9975e345},
        {0xac6b895686e81f95, 0x6738a1cc76948425,
         0x48327858e979707d, 0x1cc30714b5e8f7bf},
        {0x016c00822564faf1, 0xe1d5eb9f544f207a,
         0xff536137fa48dfef, 0xa5be8d259dadfe0e},
        {0x423ae3884ad31459, 0xd9b000102b49c121,
         0x86296b1cbbb5a7f3, 0x69a8f8569444da3b},
        {0x48581aeff0431b6b, 0x22eabd1175e1b032,
         0xcd4fba52838ef8cf, 0x404fa19b8e616be7},
        {0x2cf4fb323a700ce3, 0xa9f83bbe90e48780,
         0xbb7bf57320633f88, 0xc9dc9b09c3ec0b3f},
        {0x92cf678bf0194fcc, 0xe32dede59fe70426,
         0x93c3103b81114beb, 0x9af9f8c4e08a191a},
        {0xe49c8e8c8576aa4b, 0x54718eb074f6c930,
         0xe5d26bb514a0e8de, 0xc444473c8c66574d},
    };
    std::vector<Case> cases;
    const std::vector<GanModel> models = allBenchmarks();
    ASSERT_EQ(models.size(), 8u);
    for (std::size_t b = 0; b < models.size(); ++b)
        for (std::size_t c = 0; c < 4; ++c)
            cases.push_back({models[b].name, configs[c], tableV[b][c]});
    const std::uint64_t batches[3] = {
        0xab88df1327a3279b, 0x6b7adeb5bf131f94, 0x1d7fe30c23fd1ee9};
    for (int batch = 1; batch <= 3; ++batch) {
        AcceleratorConfig config = configs[1];
        config.batchSize = batch;
        cases.push_back({"DCGAN", config, batches[batch - 1]});
    }
    AcceleratorConfig killed = configs[1];
    killed.faults.seed = 11;
    killed.faults.tileKillRate = 0.15;
    cases.push_back({"DCGAN", killed, 0x4081f9ac1f7f1251});

    for (const Case &c : cases) {
        const GanModel model = makeBenchmark(c.model);
        LerGanAccelerator acc(model, c.config);
        const auto tmpl = acc.makeIterationTemplate();
        if (c.config.faults.tileKillRate > 0) {
            EXPECT_GT(acc.compiled().faultImpact.killedTiles, 0u);
        }
        const std::uint64_t digest = templateDigest(*tmpl);
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(digest));
        EXPECT_EQ(digest, c.digest)
            << c.model << " on " << c.config.label() << " batch "
            << c.config.batchSize << " kill rate "
            << c.config.faults.tileKillRate << ": " << hex;
    }
}

} // namespace
} // namespace lergan
