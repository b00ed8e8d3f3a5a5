/**
 * @file
 * Tests for the phase-time analysis over recorded runs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/api.hh"
#include "core/phase_report.hh"
#include "task_helpers.hh"

namespace lergan {
namespace {

TEST(PhaseReport, GroupsByLabelFamilies)
{
    TaskGraph graph;
    const std::uint32_t l1 = graph.intern("G.l1.fc@G.fwd");
    const std::uint32_t l2 = graph.intern("G.l2.tconv@G.fwd");
    const std::uint32_t d1 = graph.intern("D.l1.conv@D.fwd");
    const std::uint32_t state = graph.intern("train_disc");
    graph.addTask({TaskKind::Compute, Phase::GFwd, l1, 0, {}, 10});
    graph.addTask({TaskKind::Compute, Phase::GFwd, l2, 0, {}, 20});
    graph.addTask(
        {TaskKind::Transfer, Phase::Transfers, l1, l2, {}, 10});
    graph.addTask({TaskKind::Update, Phase::Updates, d1, 0, {}, 10});
    graph.addTask({TaskKind::Control, Phase::Other, state, 0, {}, 1});
    ExecRecord record;
    record.start = {0, 10, 5, 30, 0};
    record.end = {10, 30, 15, 40, 1};

    const auto phases = phaseTimes(graph, record);
    ASSERT_EQ(phases.size(), 4u);
    auto find = [&](const std::string &name) -> const PhaseTime & {
        for (const PhaseTime &p : phases)
            if (p.name == name)
                return p;
        ADD_FAILURE() << "missing family " << name;
        static PhaseTime none;
        return none;
    };
    EXPECT_EQ(find("G.fwd").tasks, 2u);
    EXPECT_EQ(find("G.fwd").busy, 30u);
    EXPECT_EQ(find("G.fwd").span(), 30u);
    EXPECT_EQ(find("transfers").tasks, 1u);
    EXPECT_EQ(find("updates").tasks, 1u);
    EXPECT_EQ(find("other").tasks, 1u);
}

TEST(PhaseReport, RealRunCoversAllSixPhases)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    LerGanAccelerator accelerator(model, config);
    const auto tmpl = accelerator.makeIterationTemplate();
    ExecRecord record;
    const TrainingReport report = accelerator.trainIterations(
        1, nullptr, nullptr, tmpl.get(), &record);

    const auto phases = phaseTimes(tmpl->graph, record);
    int named_phases = 0;
    for (const PhaseTime &phase : phases) {
        for (Phase p : kAllPhases)
            if (phase.name == phaseName(p))
                ++named_phases;
        EXPECT_LE(phase.lastEnd, report.iterationTime);
        EXPECT_LE(phase.firstStart, phase.lastEnd);
    }
    EXPECT_EQ(named_phases, 6);
}

TEST(PhaseReport, PhasesOverlapUnderPipelining)
{
    // The D-forward window must start before the G-forward window ends:
    // the first items reach the discriminator while later items are
    // still in the generator.
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 16;
    LerGanAccelerator accelerator(model, config);
    const auto tmpl = accelerator.makeIterationTemplate();
    ExecRecord record;
    accelerator.trainIterations(1, nullptr, nullptr, tmpl.get(), &record);

    const auto phases = phaseTimes(tmpl->graph, record);
    const PhaseTime *g_fwd = nullptr, *d_fwd = nullptr;
    for (const PhaseTime &phase : phases) {
        if (phase.name == "G.fwd")
            g_fwd = &phase;
        if (phase.name == "D.fwd")
            d_fwd = &phase;
    }
    ASSERT_TRUE(g_fwd && d_fwd);
    EXPECT_LT(d_fwd->firstStart, g_fwd->lastEnd);
}

TEST(PhaseReport, PrintsTable)
{
    TaskGraph graph;
    addNamedTask(graph, "G.l1.fc@G.fwd", {}, nsToPs(100),
                 TaskKind::Compute, Phase::GFwd);
    ExecRecord record;
    record.start = {0};
    record.end = {nsToPs(100)};
    record.makespan = nsToPs(200);
    std::ostringstream oss;
    printPhaseTimes(oss, graph, record);
    EXPECT_NE(oss.str().find("G.fwd"), std::string::npos);
    EXPECT_NE(oss.str().find("50.0%"), std::string::npos);
}

} // namespace
} // namespace lergan
