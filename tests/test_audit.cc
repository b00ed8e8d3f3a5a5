/**
 * @file
 * Tests for the cross-layer audit subsystem (src/audit): a clean run
 * passes every invariant, and each seeded corruption — a post-run
 * energy mutation, an orphan statistic, a tampered makespan, a bogus
 * recorded interval, a corrupted mapping — is caught by the matching
 * check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "audit/audit.hh"
#include "core/api.hh"
#include "core/machine.hh"
#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "core/validate.hh"
#include "nn/parser.hh"
#include "sim/trace.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

/** One simulated run plus everything the audit layer inspects. */
struct SimRun {
    GanModel model;
    AcceleratorConfig config;
    CompiledGan compiled;
    TrainingReport report;
    std::shared_ptr<const IterationTemplate> tmpl;
    ExecRecord record;
    /** The same run as a trace, for the trace adapter. */
    Tracer trace;

    AuditInput
    input() const
    {
        return {&model,  &config,      &compiled, &report,
                nullptr, &tmpl->graph, &record};
    }

    AuditInput
    traceInput() const
    {
        return {&model, &config, &compiled, &report, &trace};
    }
};

/** Small recorded run (MAGAN-MNIST on LerGAN-low, ZFDR active). */
SimRun
makeRun(AcceleratorConfig config = AcceleratorConfig::lerGan(
            ReplicaDegree::Low))
{
    SimRun run;
    run.model = makeBenchmark("MAGAN-MNIST");
    run.config = config;
    run.config.batchSize = 4;
    LerGanAccelerator accelerator(run.model, run.config);
    run.tmpl = accelerator.makeIterationTemplate();
    run.report = accelerator.trainIterations(2, &run.trace, nullptr,
                                             run.tmpl.get(), &run.record);
    run.compiled = accelerator.compiled();
    return run;
}

TEST(Audit, CleanRunPassesEveryCheck)
{
    const SimRun run = makeRun();
    // Five checks; the faults check skips on this healthy run, so four
    // actually execute.
    const AuditVerdict verdict = AuditContext().run(run.input());
    EXPECT_TRUE(verdict.ran);
    EXPECT_EQ(verdict.checksRun, 4u);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_EQ(verdict.summary(), "ok (4 checks)");
}

TEST(Audit, DefaultVerdictHasNotRun)
{
    const AuditVerdict verdict;
    EXPECT_FALSE(verdict.ran);
    EXPECT_TRUE(verdict.ok());
    EXPECT_FALSE(AuditContext(AuditOptions{}).run({}).ran);
}

TEST(Audit, PostRunEnergyMutationIsCaught)
{
    SimRun run = makeRun();
    // The acceptance scenario: someone bumps a component after the run.
    run.report.stats.add("energy.compute.adc", 1.0e6);

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.failures[0].check, "energy");
    EXPECT_NE(verdict.summary().find("changed after the run"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, OrphanEnergyComponentIsCaught)
{
    SimRun run = makeRun();
    run.report.stats.set("energy.mystery", 1.0);

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.summary().find(
                  "energy.mystery belongs to no known component family"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, NegativeAndNonFiniteEnergiesAreCaught)
{
    SimRun run = makeRun();
    run.report.stats.set("energy.buffer", -5.0);
    run.report.stats.set("energy.control",
                         std::numeric_limits<double>::quiet_NaN());

    const AuditVerdict verdict = AuditContext().run(run.input());
    EXPECT_NE(verdict.summary().find("energy.buffer is negative"),
              std::string::npos)
        << verdict.summary();
    EXPECT_NE(verdict.summary().find("energy.control is not finite"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, MissingSnapshotIsCaught)
{
    SimRun run = makeRun();
    TrainingReport bare;
    bare.stats.set("energy.update", 1.0);
    bare.iterationTime = 1;
    run.report = bare; // hand-built report, never ran on an accelerator

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.failures[0].check, "energy");
    EXPECT_NE(verdict.summary().find("missing audit.energy_total_pj"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, TamperedMakespanIsCaught)
{
    SimRun run = makeRun();
    run.report.iterationTime += 12345;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    bool timing_failure = false;
    for (const AuditFinding &finding : verdict.failures)
        timing_failure |= finding.check == "timing";
    EXPECT_TRUE(timing_failure) << verdict.summary();
}

TEST(Audit, RecordedEndPastTheMakespanIsCaught)
{
    SimRun run = makeRun();
    run.record.end[0] = run.report.iterationTime + 999;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.summary().find("after the makespan"),
              std::string::npos)
        << verdict.summary();
}

TEST(Audit, BogusTraceEventIsCaught)
{
    SimRun run = makeRun();
    // A second run of task 0, past the makespan: one more event than
    // tasks. The trace adapter reports both.
    run.trace.recordTask(0, 0, run.report.iterationTime + 999, 0);

    const AuditVerdict verdict = AuditContext().run(run.traceInput());
    ASSERT_FALSE(verdict.ok());
    const std::string summary = verdict.summary();
    EXPECT_NE(summary.find("after the makespan"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("events for"), std::string::npos) << summary;
    EXPECT_NE(summary.find("more than one trace event"), std::string::npos)
        << summary;
}

TEST(Audit, MissingRecordSkipsTheTimingCheck)
{
    const SimRun run = makeRun();
    AuditInput input = run.input();
    input.record = nullptr;

    const AuditVerdict verdict = AuditContext().run(input);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_EQ(verdict.checksRun, 3u); // timing skipped, not failed
}

/**
 * A task holding a killed tile's compute resource is caught in any of
 * its resource slots, not only in the first (its display lane).
 */
TEST(Audit, KilledTileInANonFirstSlotIsCaught)
{
    AcceleratorConfig faulty = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    faulty.failedTiles = {{2, 5}};
    const SimRun run = makeRun(faulty);
    const Machine machine(run.config);
    const std::size_t dead = machine.tileComputeRes(2, 5);
    const std::vector<std::size_t> slots = {machine.tileComputeRes(0, 0),
                                            dead};

    TaskGraph graph;
    graph.addTask({TaskKind::Compute, Phase::GFwd, graph.intern("probe"),
                   0, slots, 10});
    ExecRecord record;
    record.start = {0};
    record.end = {10};
    AuditInput input = run.input();
    input.graph = &graph;
    input.record = &record;

    const AuditVerdict verdict = AuditContext().run(input);
    bool caught = false;
    for (const AuditFinding &finding : verdict.failures) {
        caught |= finding.check == "faults" &&
                  finding.detail ==
                      "probe executed on the compute resource of a "
                      "killed tile (resource " +
                          std::to_string(dead) + ")";
    }
    EXPECT_TRUE(caught) << verdict.summary();
    // The recorded run itself routes around the killed tile.
    EXPECT_TRUE(AuditContext().run(run.input()).ok())
        << AuditContext().run(run.input()).summary();
}

TEST(Audit, CorruptedMappingIsCaught)
{
    SimRun run = makeRun();
    run.compiled.updateElemsD += 1;

    const AuditVerdict verdict = AuditContext().run(run.input());
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.failures[0].check, "mapping");
}

TEST(Audit, AuditErrorCarriesTheVerdict)
{
    AuditVerdict verdict;
    verdict.ran = true;
    verdict.checksRun = 1;
    verdict.fail("energy", "component sums diverged");

    const AuditError error(verdict);
    EXPECT_NE(std::string(error.what()).find(
                  "energy: component sums diverged"),
              std::string::npos);
    EXPECT_FALSE(error.verdict().ok());
    EXPECT_EQ(error.verdict().failures.size(), 1u);
}

TEST(Audit, SessionAuditReturnsAnOkVerdict)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const SimulationSession session(config);

    TrainingReport report;
    const AuditVerdict verdict =
        session.audit(makeBenchmark("MAGAN-MNIST"), 2, &report);
    EXPECT_TRUE(verdict.ran);
    EXPECT_EQ(verdict.checksRun, 4u);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    EXPECT_GT(report.iterationTime, 0u);
}

TEST(Audit, StrideThreeDesignAuditsClean)
{
    // Regression: this design's stride-3 T-CONV ops (I=6, S'=3, P=1,
    // R=0 — a pad below S'-1) failed the zeros check. Their boundary
    // windows carry interior masks, which enumeration dedups (0/0/9
    // corner/edge/inside) but the closed form once counted as edges
    // (4/12/9).
    const GanModel model =
        parseGan("stride3", "128f-(256t-128t-64t)(3k3s)-32t3k1s-t3",
                 "(3c-64c-128c-256c)(3k3s)-f1", 48);
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const SimulationSession session(config);
    const AuditVerdict verdict = session.audit(model);
    EXPECT_TRUE(verdict.ran);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(Audit, AuditedSessionRunMatchesUnaudited)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const GanModel model = makeBenchmark("MAGAN-MNIST");

    SimulationSession plain(config);
    const TrainingReport baseline = plain.run(model, 2);

    SimulationSession audited(config);
    audited.auditWith(AuditOptions::full());
    const TrainingReport checked = audited.run(model, 2);

    EXPECT_EQ(checked.iterationTime, baseline.iterationTime);
    EXPECT_DOUBLE_EQ(checked.totalEnergyPj(), baseline.totalEnergyPj());
}

TEST(Audit, SweepSurfacesPerPointVerdicts)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("lergan", config);
    sweep.auditWith(AuditOptions::full());

    const auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].audit.ran);
    EXPECT_EQ(results[0].audit.checksRun, 4u);
    EXPECT_TRUE(results[0].audit.ok()) << results[0].audit.summary();

    std::ostringstream json;
    writeSweepJson(json, results);
    EXPECT_NE(json.str().find("\"audit\":{\"ok\":true,\"checks\":4}"),
              std::string::npos)
        << json.str();
}

TEST(Audit, UnauditedSweepLeavesVerdictEmpty)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addConfig("lergan", config);

    const auto results = sweep.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].audit.ran);

    std::ostringstream json;
    writeSweepJson(json, results);
    EXPECT_EQ(json.str().find("\"audit\""), std::string::npos);
}

/**
 * The verdict of every Table V GAN on PRIME and on LerGAN-low, and of
 * one run with killed tiles: all clean, with the fault check counted
 * only where tiles were killed. The verdict read from the graph and the
 * record equals the one the trace adapter derives from a trace.
 */
TEST(Audit, TableVVerdictsArePinned)
{
    const auto verdictOf = [](const GanModel &model,
                              const AcceleratorConfig &config) {
        LerGanAccelerator accelerator(model, config);
        const auto tmpl = accelerator.makeIterationTemplate();
        Tracer trace;
        ExecRecord record;
        const TrainingReport report = accelerator.trainIterations(
            1, &trace, nullptr, tmpl.get(), &record);
        const CompiledGan *compiled = &accelerator.compiled();
        const AuditVerdict traced =
            AuditContext().run({&model, &config, compiled, &report, &trace});
        const AuditVerdict recorded = AuditContext().run(
            {&model, &config, compiled, &report, nullptr, &tmpl->graph,
             &record});
        EXPECT_EQ(recorded.checksRun, traced.checksRun);
        EXPECT_EQ(recorded.summary(), traced.summary());
        return recorded;
    };
    const std::vector<std::string> names = benchmarkNames();
    ASSERT_EQ(names.size(), 8u);
    for (const std::string &name : names) {
        const GanModel model = makeBenchmark(name);
        for (const AcceleratorConfig &config :
             {AcceleratorConfig::prime(),
              AcceleratorConfig::lerGan(ReplicaDegree::Low)}) {
            SCOPED_TRACE(name + "/" + config.label());
            const AuditVerdict verdict = verdictOf(model, config);
            EXPECT_EQ(verdict.checksRun, 4u);
            EXPECT_EQ(verdict.summary(), "ok (4 checks)");
        }
    }
    AcceleratorConfig faulty = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    faulty.faults.seed = 11;
    faulty.faults.tileKillRate = 0.15;
    const AuditVerdict verdict =
        verdictOf(makeBenchmark("DCGAN"), faulty);
    EXPECT_EQ(verdict.checksRun, 5u);
    EXPECT_EQ(verdict.summary(), "ok (5 checks)");
}

TEST(Audit, ValidatedCompileAcceptsAndRejects)
{
    const GanModel model = makeBenchmark("MAGAN-MNIST");
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;

    CompiledGan compiled = compileGanValidated(model, config);
    EXPECT_GT(compiled.crossbarsUsed, 0u);

    compiled.updateElemsG += 7;
    EXPECT_THROW(throwIfInvalid(model, config, compiled),
                 std::runtime_error);
}

} // namespace
} // namespace lergan
