/**
 * @file
 * Property tests for the critical-path engine (src/critpath).
 *
 * Four families, all exact rather than statistical:
 *
 *   - Pins and oracles on the Table V points: the rendered report,
 *     what-if lines, critpath exports and fig19 trace bytes are pinned;
 *     every task's phase column and every resource's category equal
 *     what the label and name parsers they replaced derive from the
 *     text; misspelled what-if names throw.
 *   - Chain/slack invariants on every golden grid point (all zoo
 *     benchmarks x prime + the three LerGAN replica degrees): the
 *     binding-predecessor chain telescopes, so its durations sum to the
 *     makespan exactly and every chain task has zero slack. Off the
 *     chain slack is strictly positive except on the DiscoGAN models,
 *     whose structurally symmetric GAN pairs produce a handful of
 *     co-critical tasks. The slack kernel equals the plain pass it
 *     replaced (kept here as an oracle) task for task, on Table V and
 *     on seeded graphs with multi-slot reservations.
 *   - What-if soundness against real resimulation: the identity
 *     transform is bit-exact, and under arbitrary duration transforms
 *     the [lower, upper] bounds bracket the truth — upper is an
 *     executor run on the transformed durations, so it equals the
 *     makespan of a graph rebuilt with them.
 *   - Sweep bound pruning: pruned points report the same timing and
 *     energy a full simulation would, carry "critpath.estimated", and
 *     the telemetry counters account for every point.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/api.hh"
#include "core/sweep.hh"
#include "core/sweep_io.hh"
#include "critpath/critpath.hh"
#include "critpath/whatif.hh"
#include "sim/resource.hh"
#include "sim/task_graph.hh"
#include "sim/trace_tracks.hh"
#include "task_helpers.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

std::vector<std::pair<std::string, AcceleratorConfig>>
goldenConfigs()
{
    return {
        {"prime", AcceleratorConfig::prime()},
        {"low", AcceleratorConfig::lerGan(ReplicaDegree::Low)},
        {"middle", AcceleratorConfig::lerGan(ReplicaDegree::Middle)},
        {"high", AcceleratorConfig::lerGan(ReplicaDegree::High)},
    };
}

/** One recorded single-iteration run of (model, config). */
struct Recorded {
    std::shared_ptr<const IterationTemplate> tmpl;
    std::vector<std::string> resourceNames;
    ExecRecord record;
};

Recorded
recordPoint(const GanModel &model, const AcceleratorConfig &config)
{
    LerGanAccelerator accelerator(model, config);
    Recorded out;
    out.tmpl = accelerator.makeIterationTemplate();
    out.resourceNames = accelerator.resourceNames();
    accelerator.trainIterations(1, nullptr, nullptr, out.tmpl.get(),
                                &out.record);
    return out;
}

std::shared_ptr<const RecordedRun>
toRun(Recorded recorded)
{
    std::shared_ptr<const TaskGraph> graph(recorded.tmpl,
                                           &recorded.tmpl->graph);
    ExecScratch scratch;
    return makeRecordedRun(std::move(graph),
                           std::move(recorded.resourceNames),
                           std::move(recorded.record), scratch);
}

TEST(CritPathGolden, ChainSumsToMakespanOnEveryGridPoint)
{
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] : goldenConfigs()) {
            const Recorded recorded = recordPoint(model, config);
            const CriticalPath path = extractCriticalPath(
                recorded.tmpl->graph, recorded.record,
                recorded.resourceNames);
            SCOPED_TRACE(model.name + "/" + label);
            ASSERT_FALSE(path.entries.empty());
            EXPECT_EQ(path.makespan, recorded.record.makespan);
            // The satellite property: the chain durations sum to the
            // reported makespan exactly, no tolerance.
            EXPECT_EQ(path.criticalDuration(), recorded.record.makespan);
            // Because the chain telescopes: the first link starts at
            // zero and every later link starts the instant its binding
            // predecessor ends.
            EXPECT_EQ(path.entries.front().start, 0u);
            for (std::size_t i = 1; i < path.entries.size(); ++i) {
                EXPECT_EQ(path.entries[i].start,
                          path.entries[i - 1].start +
                              path.entries[i - 1].duration);
            }
            EXPECT_EQ(path.entries.back().start +
                          path.entries.back().duration,
                      recorded.record.makespan);
        }
    }
}

TEST(CritPathGolden, SlackIsZeroOnChainAndPositiveOffChain)
{
    for (const GanModel &model : allBenchmarks()) {
        // The DiscoGAN models train 4/5 structurally identical GAN
        // pairs in parallel: several pairs finish at the same instant,
        // so a handful of off-chain tasks are co-critical (zero slack
        // without being the extracted chain). Every other benchmark has
        // a unique critical chain.
        const bool symmetric = model.name.rfind("DiscoGAN", 0) == 0;
        for (const auto &[label, config] : goldenConfigs()) {
            const Recorded recorded = recordPoint(model, config);
            const CriticalPath path = extractCriticalPath(
                recorded.tmpl->graph, recorded.record,
                recorded.resourceNames);
            SCOPED_TRACE(model.name + "/" + label);
            std::vector<char> onChain(recorded.tmpl->graph.size(), 0);
            for (const CritEntry &entry : path.entries)
                onChain[entry.task] = 1;
            std::size_t coCritical = 0;
            for (TaskId id = 0; id < recorded.tmpl->graph.size(); ++id) {
                if (onChain[id]) {
                    EXPECT_EQ(path.slack[id], 0u) << "task " << id;
                } else if (path.slack[id] == 0) {
                    ++coCritical;
                }
            }
            if (symmetric) {
                EXPECT_LE(coCritical, 32u);
            } else {
                EXPECT_EQ(coCritical, 0u);
            }
            EXPECT_GE(path.zeroSlackTasks(), path.entries.size());
        }
    }
}

/**
 * The slack pass as first written, kept as the oracle of the kernel
 * extractCriticalPath runs: each successor's latest start recomputed
 * from its latest end and duration, and every reservation slot pushed
 * to its previous holder, with no deduplication.
 */
std::vector<PicoSeconds>
oracleSlack(const TaskGraph &graph, const ExecRecord &record)
{
    const std::size_t n = graph.size();
    std::vector<PicoSeconds> lateEnd(n, record.makespan);
    std::vector<PicoSeconds> slack(n, 0);
    for (std::size_t i = record.popOrder.size(); i-- > 0;) {
        if (!ExecRecord::popIsCompletion(record.popOrder[i]))
            continue;
        const TaskId id = ExecRecord::popTask(record.popOrder[i]);
        PicoSeconds late = lateEnd[id];
        for (const TaskId succ : graph.successorCsr().of(id))
            late = std::min(late, lateEnd[succ] - graph.duration(succ));
        lateEnd[id] = late;
        slack[id] = late - record.end[id];
        const PicoSeconds lateStart = late - graph.duration(id);
        const std::size_t first = graph.resourceClasses().slot(id);
        for (std::size_t slot = first;
             slot < first + graph.resourceClasses().of(id).size(); ++slot) {
            const std::uint32_t prev = record.resPrev[slot];
            if (prev != ExecRecord::kNoTask32)
                lateEnd[prev] = std::min(lateEnd[prev], lateStart);
        }
    }
    return slack;
}

TEST(CritPathGolden, SlackMatchesTheOracleOnTableV)
{
    // One scratch across every point, as a sweep lane reuses it.
    ExecScratch scratch;
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] :
             {std::pair{"prime", AcceleratorConfig::prime()},
              std::pair{"low",
                        AcceleratorConfig::lerGan(ReplicaDegree::Low)}}) {
            const Recorded recorded = recordPoint(model, config);
            SCOPED_TRACE(model.name + "/" + label);
            const CriticalPath path = extractCriticalPath(
                recorded.tmpl->graph, recorded.record,
                recorded.resourceNames, &scratch);
            EXPECT_EQ(path.slack,
                      oracleSlack(recorded.tmpl->graph, recorded.record));
        }
    }
}

TEST(CritPathGolden, IdentityWhatIfIsBitExactOnEveryGridPoint)
{
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] : goldenConfigs()) {
            const std::shared_ptr<const RecordedRun> run =
                toRun(recordPoint(model, config));
            SCOPED_TRACE(model.name + "/" + label);
            const PicoSeconds recorded = run->record.makespan;
            const WhatIfEstimate estimate =
                whatIf(*run, identityTransform(*run));
            EXPECT_EQ(estimate.makespan, recorded);
            // The upper bound runs the executor on the same
            // durations, so it reproduces the makespan exactly too.
            EXPECT_EQ(estimate.upper, recorded);
            EXPECT_LE(estimate.lower, recorded);
            EXPECT_GT(estimate.lower, 0u);
        }
    }
}

/**
 * Reference oracle: the label parser the phase column replaced. A
 * task's phase, recovered from its rendered label.
 */
std::string_view
oraclePhaseOf(std::string_view label)
{
    if (label.starts_with("xfer:") || label.starts_with("load:"))
        return "transfers";
    if (label.starts_with("update:") ||
        label.find(".grad.readout") != std::string_view::npos ||
        label.find(".update.cpu") != std::string_view::npos) {
        return "updates";
    }
    const auto at = label.find('@');
    if (at != std::string_view::npos)
        return label.substr(at + 1);
    return "other";
}

/**
 * Reference oracle: the resource-name parser the pool's category
 * column replaced.
 */
const char *
oracleCategoryOf(const std::string &name)
{
    if (name.find(".compute") != std::string::npos)
        return "compute";
    if (name.find("wire") != std::string::npos)
        return "wire";
    if (name.find("switch") != std::string::npos)
        return "switch";
    if (name.find("bus") != std::string::npos)
        return "bus";
    if (name.find("cpu") != std::string::npos)
        return "cpu";
    return "other";
}

/**
 * The typed identity agrees with the text it replaced on every task
 * and resource of the 32 Table V points: each task's phase column is
 * the family its rendered label parses to, and each resource's
 * category (as the template graph carries it) is the one its name
 * parses to.
 */
TEST(CritPathGolden, TypedIdentityMatchesTheLabelOracle)
{
    for (const GanModel &model : allBenchmarks()) {
        for (const auto &[label, config] : goldenConfigs()) {
            SCOPED_TRACE(model.name + "/" + label);
            LerGanAccelerator accelerator(model, config);
            const auto tmpl = accelerator.makeIterationTemplate();
            const TaskGraph &graph = tmpl->graph;
            for (TaskId id = 0; id < graph.size(); ++id) {
                const std::string text = graph.label(id);
                ASSERT_EQ(phaseName(graph.phase(id)),
                          oraclePhaseOf(text))
                    << text;
            }
            const ResourcePool &pool = accelerator.machine().pool();
            ASSERT_GE(pool.size(), graph.resourceBound());
            ASSERT_EQ(*tmpl->resourceNames, pool.names());
            const auto name = [](ResourceCategory category) {
                return kResourceCategoryNames[static_cast<int>(category)];
            };
            for (std::size_t rid = 0; rid < pool.size(); ++rid) {
                const char *expected = oracleCategoryOf(pool.name(rid));
                ASSERT_STREQ(name(pool.categories()[rid]), expected)
                    << pool.name(rid);
                ASSERT_STREQ(name(graph.resourceCategory(rid)), expected)
                    << pool.name(rid);
            }
        }
    }
}

TEST(CritPath, MisspelledWhatIfNamesThrowListingTheAcceptedOnes)
{
    const std::shared_ptr<const RecordedRun> run = toRun(
        recordPoint(makeBenchmark("MAGAN-MNIST"),
                    AcceleratorConfig::lerGan(ReplicaDegree::Low)));
    try {
        scalePhase(*run, "trnasfers", 0.5);
        ADD_FAILURE() << "a misspelled phase was accepted";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("'trnasfers'"), std::string::npos) << what;
        for (const char *name : kPhaseNames)
            EXPECT_NE(what.find(name), std::string::npos) << what;
    }
    try {
        scaleResourceCategory(*run, "wires", 2.0);
        ADD_FAILURE() << "a misspelled resource category was accepted";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("'wires'"), std::string::npos) << what;
        EXPECT_NE(what.find("compute, wire, switch, bus, cpu, other"),
                  std::string::npos)
            << what;
    }
    // "none" labels barrier entries of the rollup; no resource has it.
    EXPECT_THROW(scaleResourceCategory(*run, "none", 2.0),
                 std::invalid_argument);
    EXPECT_THROW(scalePhase(*run, "G.fwd ", 2.0), std::invalid_argument);
    // Every accepted name still transforms.
    for (const char *name : kPhaseNames)
        EXPECT_NO_THROW(scalePhase(*run, name, 2.0)) << name;
    EXPECT_EQ(whatIf(*run, scalePhase(*run, "transfers", 1.0)).makespan,
              run->record.makespan);
}

/** FNV-1a 64 of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * The text the critical-path engine renders, pinned: the fig19
 * --critpath report (both DCGAN chains and the four what-if lines, in
 * one stream, as the bench prints them), the critpath object and
 * columns of one recorded sweep point's JSON and CSV export, and the
 * Chrome export of fig19's --trace point (transfer occupancy, busiest
 * wire, critical lane). None of it is in a figure golden.
 */
TEST(CritPathGolden, Fig19ReportIsPinned)
{
    const GanModel model = makeBenchmark("DCGAN");
    std::ostringstream report;
    const auto analyze = [&](const char *label,
                             const AcceleratorConfig &config) {
        SimulationSession session(config);
        session.withCriticalPath();
        const TrainingReport run = session.run(model, 10);
        report << "critpath: DCGAN/" << label << "\n";
        run.critpath->path.print(report);
        return run.critpath;
    };
    analyze("prime", AcceleratorConfig::prime());
    const auto low =
        analyze("low", AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const auto demo = [&](const WhatIfTransform &transform) {
        const WhatIfEstimate est = whatIf(*low, transform);
        report << "  what-if " << transform.description << ": "
               << psToMs(est.makespan) << " ms  (bounds ["
               << psToMs(est.lower) << ", " << psToMs(est.upper)
               << "] ms)\n";
    };
    report << "what-if (DCGAN/low, recorded "
           << psToMs(low->record.makespan) << " ms):\n";
    demo(identityTransform(*low));
    demo(scaleResourceCategory(*low, "wire", 2.0));
    demo(scaleResourceCategory(*low, "compute", 2.0));
    demo(scalePhase(*low, "transfers", 0.5));
    EXPECT_EQ(report.str(), R"(critpath: DCGAN/prime
  critical path: 3472 links, 124.377 ms, 3472 zero-slack tasks
  by phase:       transfers 89.4%  updates 10.5%  G.bwd_w 0.0%  D.fwd 0.0%  D.bwd_w 0.0%  other 0.0%  G.fwd 0.0%
  by resource:    wire 89.4%  cpu 10.5%  compute 0.1%  none 0.0%
         5.891 ms  G.grad.readout                [dep]
         5.384 ms  D.grad.readout                [dep]
         0.943 ms  G.update.cpu                  [dep]
         0.861 ms  D.update.cpu                  [dep]
         0.082 ms  xfer:D.l1.conv@D.fwd->D.l1.conv@D.bwd_err  [resource b3.wire.d3.0]
         0.082 ms  xfer:D.l1.conv@D.fwd->D.l2.conv@D.bwd_w  [resource b3.wire.d1.0]
         0.082 ms  xfer:D.l1.conv@D.fwd->D.l1.conv@D.bwd_err  [resource b3.wire.d3.0]
         0.082 ms  xfer:D.l1.conv@D.fwd->D.l2.conv@D.bwd_w  [resource b3.wire.d1.0]
critpath: DCGAN/low
  critical path: 2678 links, 75.847 ms, 2678 zero-slack tasks
  by phase:       transfers 45.4%  D.bwd_w 30.6%  updates 17.5%  G.bwd_w 6.5%  D.fwd 0.1%  D.bwd_err 0.0%  other 0.0%  G.fwd 0.0%
  by resource:    compute 37.4%  switch 33.4%  cpu 17.2%  wire 12.0%  none 0.0%
         5.891 ms  G.grad.readout                [dep]
         5.384 ms  D.grad.readout                [dep]
         0.943 ms  G.update.cpu                  [dep]
         0.861 ms  D.update.cpu                  [dep]
         0.102 ms  D.l4.conv@D.bwd_w             [dep]
         0.102 ms  D.l4.conv@D.bwd_w             [resource b4.t0.compute]
         0.102 ms  D.l4.conv@D.bwd_w             [resource b4.t0.compute]
         0.102 ms  D.l4.conv@D.bwd_w             [resource b4.t0.compute]
what-if (DCGAN/low, recorded 75.847 ms):
  what-if identity: 75.847 ms  (bounds [27.675, 75.847] ms)
  what-if wire throughput x2: 60.116 ms  (bounds [23.184, 60.464] ms)
  what-if compute throughput x2: 61.680 ms  (bounds [27.675, 61.607] ms)
  what-if phase transfers x0.5: 60.114 ms  (bounds [23.184, 60.462] ms)
)");

    ExperimentSweep sweep;
    sweep.addBenchmark(model)
        .addConfig("low", AcceleratorConfig::lerGan(ReplicaDegree::Low))
        .withCriticalPath();
    const std::vector<SweepResult> results = sweep.run();
    std::ostringstream json, csv;
    writeSweepJson(json, results);
    writeSweepCsv(csv, results);
    const std::string exported = json.str();
    const std::size_t object = exported.find("\"critpath\":");
    ASSERT_NE(object, std::string::npos) << exported;
    EXPECT_EQ(exported.substr(object,
                              exported.find('}', exported.find(
                                                     "\"by_resource\"",
                                                     object)) +
                                  2 - object),
              R"("critpath":{"makespan_ms":75.847437002000007,"links":2678,"zero_slack_tasks":2678,"by_phase":{"transfers":34.433256522000001,"D.bwd_w":23.17623296,"updates":13.23834304,"G.bwd_w":4.9396904800000003,"D.fwd":0.051200000000000002,"D.bwd_err":0.0086,"other":6.4000000000000011e-05,"G.fwd":5.0000000000000002e-05},"by_resource":{"compute":28.334911680000001,"switch":25.358211322000002,"cpu":13.079204800000001,"wire":9.0711724,"none":0.0039367999999999998}})");
    // The critpath columns close the header and the row.
    const std::string table = csv.str();
    const std::string header = table.substr(0, table.find('\n'));
    const std::string row = table.substr(header.size() + 1);
    const auto tail = [](const std::string &line) {
        std::size_t cut = line.size();
        for (int commas = 0; commas < 3; ++commas)
            cut = line.rfind(',', cut - 1);
        return line.substr(cut);
    };
    EXPECT_EQ(tail(header) + "\n" + tail(row.substr(0, row.find('\n'))),
              R"(,crit_links,crit_zero_slack,crit_top_phase
,2678,2678,transfers)");

    LerGanAccelerator accelerator(
        model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const auto tmpl = accelerator.makeIterationTemplate();
    Tracer tracer;
    ExecRecord record;
    accelerator.trainIterations(1, &tracer, nullptr, tmpl.get(), &record);
    std::vector<std::string> names = accelerator.resourceNames();
    addSpanOccupancyTrack(tracer, TaskKind::Transfer, "ic.xfer.active");
    const std::size_t wire =
        busiestResource(tracer, tmpl->graph, ResourceCategory::Wire);
    ASSERT_NE(wire, SIZE_MAX);
    EXPECT_EQ(names[wire], "b3.d4.n0.vwire");
    addResourceOccupancyTrack(tracer, tmpl->graph, wire,
                                  names[wire] + ".busy");
    appendCriticalTrack(tracer,
                        extractCriticalPath(tmpl->graph, record, names),
                        names);
    std::ostringstream chrome;
    tracer.exportChromeTrace(chrome, names);
    const std::string trace = chrome.str();
    EXPECT_EQ(trace.size(), 6521569u) << trace.substr(0, 2000);
    EXPECT_EQ(fnv1a(trace), 0xf4610e6f4e324b51ull) << std::hex << fnv1a(trace) << "\n"
                                    << trace.substr(trace.size() - 2000);
}

// ---------------------------------------------------------------------
// Seeded random graphs: the properties must hold for arbitrary DAG
// shapes and resource conflicts, not just the structured GAN DAGs.

struct RandomModel {
    std::shared_ptr<TaskGraph> graph;
    std::vector<std::string> resourceNames;
    std::vector<ResourceCategory> categories;
    std::vector<PicoSeconds> durations;
};

/** Every third task a transfer, the rest markers; odd resources are
 *  compute, even ones wires. */
RandomModel
makeRandomModel(std::uint32_t seed)
{
    std::mt19937 rng(seed);
    const std::size_t n = 120 + rng() % 200;
    const std::size_t resources = 4 + rng() % 8;
    RandomModel model;
    model.graph = std::make_shared<TaskGraph>();
    const std::uint32_t name = model.graph->intern("t");
    for (std::size_t i = 0; i < n; ++i) {
        Task task;
        if (i % 3 == 0) {
            task.kind = TaskKind::Transfer;
            task.phase = Phase::Transfers;
        }
        task.op = task.peer = name;
        task.duration = 1 + rng() % 1000;
        const std::size_t r = rng() % resources;
        std::vector<std::size_t> held = {r};
        if (rng() % 4 == 0 && resources > 1)
            held.push_back((r + 1) % resources);
        task.resources = model.graph->internResources(held);
        model.durations.push_back(task.duration);
        model.graph->addTask(task);
    }
    for (TaskId task = 1; task < n; ++task) {
        const unsigned deps = rng() % 3;
        for (unsigned d = 0; d < deps; ++d)
            model.graph->addDep(task, rng() % task);
    }
    for (std::size_t r = 0; r < resources; ++r) {
        model.resourceNames.push_back(
            r % 2 ? "b.t" + std::to_string(r) + ".compute"
                  : "b.wire.d" + std::to_string(r));
        model.categories.push_back(r % 2 ? ResourceCategory::Compute
                                         : ResourceCategory::Wire);
    }
    model.graph->setResourceCategories(model.categories);
    return model;
}

/** Real event simulation of @p model with @p durations substituted. */
PicoSeconds
resimulate(const RandomModel &model,
           const std::vector<PicoSeconds> &durations, ExecRecord *record)
{
    TaskGraph graph;
    for (TaskId id = 0; id < model.graph->size(); ++id) {
        const auto res = model.graph->resources(id);
        addNamedTask(graph, model.graph->label(id), {res.begin(), res.end()},
                     durations[id], model.graph->kind(id),
                     model.graph->phase(id));
    }
    for (TaskId dep = 0; dep < model.graph->size(); ++dep)
        for (const TaskId task : model.graph->successorCsr().of(dep))
            graph.addDep(task, dep);
    return graph.execute(nullptr, record);
}

TEST(CritPathRandom, ChainAndIdentityHoldOnSeededGraphs)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        ExecRecord record;
        const PicoSeconds makespan =
            resimulate(model, model.durations, &record);
        SCOPED_TRACE("seed " + std::to_string(seed));
        const CriticalPath path = extractCriticalPath(
            *model.graph, record, model.resourceNames);
        EXPECT_EQ(path.criticalDuration(), makespan);
        // Both rollups partition the chain; the transfers share is the
        // chain time of its transfer tasks.
        PicoSeconds transfers = 0;
        for (const CritEntry &entry : path.entries) {
            EXPECT_EQ(path.slack[entry.task], 0u);
            if (model.graph->kind(entry.task) == TaskKind::Transfer)
                transfers += entry.duration;
        }
        for (const CritRollup *rollup :
             {&path.phaseRollup, &path.resourceRollup}) {
            PicoSeconds total = 0;
            for (const auto &[name, time] : *rollup)
                total += time;
            EXPECT_EQ(total, makespan);
        }
        for (const auto &[name, time] : path.phaseRollup) {
            if (name == "transfers") {
                EXPECT_EQ(time, transfers);
            }
        }

        ExecRecord copy;
        resimulate(model, model.durations, &copy);
        ExecScratch scratch;
        const auto run = makeRecordedRun(model.graph,
                                         model.resourceNames,
                                         std::move(copy), scratch);
        const WhatIfEstimate identity =
            whatIf(*run, identityTransform(*run));
        EXPECT_EQ(identity.makespan, makespan);
        EXPECT_EQ(identity.upper, makespan);
        EXPECT_LE(identity.lower, makespan);
    }
}

TEST(CritPathRandom, RecordSlotsFollowTheGraphResourceCsr)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        const TaskGraph &graph = *model.graph;
        ExecRecord record;
        graph.execute(nullptr, &record);
        SCOPED_TRACE("seed " + std::to_string(seed));

        const ResourceClasses classes = graph.resourceClasses();
        std::size_t slots = 0;
        for (TaskId id = 0; id < graph.size(); ++id) {
            EXPECT_EQ(classes.slot(id), slots) << "task " << id;
            slots += classes.of(id).size();
        }
        ASSERT_EQ(record.resPrev.size(), slots);

        // Slot j of task t is the reservation of class of(t)[j]: its
        // previous holder held every resource of t in that class and
        // had released them by the time t started.
        std::size_t named = 0;
        for (TaskId id = 0; id < graph.size(); ++id) {
            const auto held = classes.of(id);
            for (std::size_t j = 0; j < held.size(); ++j) {
                const std::uint32_t prev = record.resPrev[classes.slot(id) + j];
                if (prev == ExecRecord::kNoTask32)
                    continue;
                ++named;
                ASSERT_LT(prev, graph.size());
                const auto prevHeld = graph.resources(prev);
                for (const std::uint32_t rid : graph.resources(id)) {
                    if (classes.classOf[rid] != held[j])
                        continue;
                    EXPECT_NE(std::find(prevHeld.begin(), prevHeld.end(),
                                        rid),
                              prevHeld.end())
                        << "task " << id << " slot " << j;
                }
                EXPECT_LE(record.end[prev], record.start[id])
                    << "task " << id << " slot " << j;
            }
        }
        // Contended graphs: most reservations queue behind another.
        EXPECT_GT(named, slots / 2);
    }
}

/**
 * A seeded DAG whose tasks hold 1-4 distinct resources out of
 * @p resources. About half the tasks hold the previous task's set, so
 * consecutive reservation slots often name one previous holder; the
 * rest draw a fresh set, so they often do not. Some durations are zero.
 */
TaskGraph
makeMultiSlotGraph(std::uint32_t seed, std::size_t resources)
{
    std::mt19937 rng(seed);
    TaskGraph graph;
    const std::size_t n = 60 + rng() % 200;
    std::vector<std::size_t> held;
    for (std::size_t i = 0; i < n; ++i) {
        if (held.empty() || rng() % 2 == 0) {
            held.clear();
            const std::size_t k = 1 + rng() % 4;
            while (held.size() < k) {
                const std::size_t r = rng() % resources;
                if (std::find(held.begin(), held.end(), r) == held.end())
                    held.push_back(r);
            }
        }
        addNamedTask(graph, "t", held, rng() % 500, TaskKind::Compute);
    }
    for (TaskId task = 1; task < n; ++task) {
        const unsigned deps = rng() % 3;
        for (unsigned d = 0; d < deps; ++d)
            graph.addDep(task, rng() % task);
    }
    return graph;
}

TEST(CritPathRandom, SlackMatchesTheOracleOnMultiSlotGraphs)
{
    constexpr std::size_t kResources = 6;
    std::vector<std::string> names;
    for (std::size_t r = 0; r < kResources; ++r)
        names.push_back("r" + std::to_string(r));
    // One scratch across graphs of different sizes.
    ExecScratch scratch;
    std::size_t sharedHolder = 0, distinctHolders = 0;
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
        const TaskGraph graph = makeMultiSlotGraph(seed, kResources);
        ExecRecord record;
        graph.execute(nullptr, &record);
        SCOPED_TRACE("seed " + std::to_string(seed));
        const CriticalPath path =
            extractCriticalPath(graph, record, names, &scratch);
        EXPECT_EQ(path.slack, oracleSlack(graph, record));
        EXPECT_EQ(path.criticalDuration(), record.makespan);
        const ResourceClasses classes = graph.resourceClasses();
        for (TaskId id = 0; id < graph.size(); ++id) {
            for (std::size_t slot = classes.slot(id) + 1;
                 slot < classes.slot(id + 1); ++slot) {
                const std::uint32_t a = record.resPrev[slot - 1];
                const std::uint32_t b = record.resPrev[slot];
                if (a == ExecRecord::kNoTask32 ||
                    b == ExecRecord::kNoTask32)
                    continue;
                ++(a == b ? sharedHolder : distinctHolders);
            }
        }
    }
    // Both sides of the deduplication were exercised.
    EXPECT_GT(sharedHolder, 100u);
    EXPECT_GT(distinctHolders, 100u);
}

TEST(CritPathRandom, BoundsBracketResimulationUnderDurationTransforms)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        ExecRecord record;
        resimulate(model, model.durations, &record);
        ExecScratch scratch;
        const auto run = makeRecordedRun(model.graph,
                                         model.resourceNames,
                                         std::move(record), scratch);
        std::mt19937 rng(seed * 977);
        for (int k = 0; k < 4; ++k) {
            WhatIfTransform transform;
            transform.description = "random scale";
            transform.durations = model.durations;
            const double scale = k % 2 ? 0.5 : 2.0;
            for (PicoSeconds &duration : transform.durations) {
                if (rng() % 2) {
                    duration = static_cast<PicoSeconds>(
                        static_cast<double>(duration) * scale + 0.5);
                }
            }
            const WhatIfEstimate estimate = whatIf(*run, transform);
            const PicoSeconds truth =
                resimulate(model, transform.durations, nullptr);
            SCOPED_TRACE("seed " + std::to_string(seed) + " k" +
                         std::to_string(k));
            // The sound bracket of the satellite property...
            EXPECT_LE(estimate.lower, truth);
            EXPECT_GE(estimate.upper, truth);
            // ...which the upper bound meets with equality: it is the
            // executor run on the transformed durations. (The fixed-
            // grant-order replay estimate deliberately has no such
            // guarantee — list-scheduling anomalies put the truth on
            // either side of it.)
            EXPECT_EQ(estimate.upper, truth);
        }
    }
}

TEST(CritPathRandom, MakespanBoundsBracketTheTrueMakespan)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const RandomModel model = makeRandomModel(seed);
        const PicoSeconds truth =
            resimulate(model, model.durations, nullptr);
        const MakespanBounds bounds = makespanBounds(
            *model.graph, model.resourceNames.size());
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_LE(bounds.lower, truth);
        // The upper bound is an executor run: exact, not merely an
        // overestimate — this is what makes sweep pruning decisions
        // match a full simulation.
        EXPECT_EQ(bounds.upper, truth);
        EXPECT_GT(bounds.lower, 0u);
        EXPECT_FALSE(bounds.provenFasterThan(truth));
        EXPECT_FALSE(bounds.provenSlowerThan(truth));
        EXPECT_TRUE(bounds.provenFasterThan(truth + 1));
        EXPECT_TRUE(bounds.provenSlowerThan(bounds.lower - 1));
    }
}

// ---------------------------------------------------------------------
// Session and sweep integration.

TEST(CritPathSession, RecordingAttachesRunAndNeverChangesResults)
{
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.batchSize = 4;
    const GanModel model = makeBenchmark("MAGAN-MNIST");

    SimulationSession session(config);
    const TrainingReport plain = session.run(model);
    EXPECT_EQ(plain.critpath, nullptr);

    session.withCriticalPath();
    const TrainingReport recorded = session.run(model);
    ASSERT_NE(recorded.critpath, nullptr);
    EXPECT_EQ(recorded.iterationTime, plain.iterationTime);
    EXPECT_DOUBLE_EQ(recorded.totalEnergyPj(), plain.totalEnergyPj());

    const RecordedRun &run = *recorded.critpath;
    EXPECT_EQ(run.record.makespan, recorded.iterationTime);
    EXPECT_EQ(run.path.criticalDuration(), recorded.iterationTime);

    session.withCriticalPath(false);
    EXPECT_EQ(session.run(model).critpath, nullptr);
}

ExperimentSweep
smallSweep()
{
    AcceleratorConfig prime = AcceleratorConfig::prime();
    prime.batchSize = 4;
    AcceleratorConfig low = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    low.batchSize = 4;
    AcceleratorConfig middle =
        AcceleratorConfig::lerGan(ReplicaDegree::Middle);
    middle.batchSize = 4;
    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("MAGAN-MNIST"))
        .addBenchmark(makeBenchmark("cGAN"))
        .addConfig("prime", prime)
        .addConfig("low", low)
        .addConfig("middle", middle)
        .addPoint(makeBenchmark("MAGAN-MNIST"), "extra", low);
    return sweep;
}

TEST(CritPathSweep, BoundPruningMatchesFullSimulationExactly)
{
    const std::vector<SweepResult> reference = smallSweep().run();

    ExperimentSweep pruned = smallSweep();
    const auto registry = std::make_shared<MetricsRegistry>();
    pruned.withBoundPruning().withTelemetry(registry);
    const std::vector<SweepResult> results = pruned.run();

    ASSERT_EQ(results.size(), reference.size());
    std::size_t estimated = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(results[i].benchmark + "/" + results[i].configLabel);
        ASSERT_FALSE(results[i].failed) << results[i].error;
        // The pruning estimate is an executor run, so even pruned
        // points report the timing and energy a full event simulation
        // would have produced.
        EXPECT_EQ(results[i].report.iterationTime,
                  reference[i].report.iterationTime);
        EXPECT_DOUBLE_EQ(results[i].report.totalEnergyPj(),
                         reference[i].report.totalEnergyPj());
        if (results[i].report.stats.has("critpath.estimated")) {
            ++estimated;
            // Baselines (first config) and explicit extra points are
            // never pruned.
            EXPECT_NE(results[i].configLabel, "prime");
            EXPECT_NE(results[i].configLabel, "extra");
        }
    }
    // LerGAN low/middle beat the prime baseline on both models by a
    // wide margin, so the bounds decide every non-baseline grid point.
    EXPECT_GT(estimated, 0u);
    const double prunedCount = registry->counter("critpath.pruned").value();
    const double simulated = registry->counter("critpath.simulated").value();
    EXPECT_EQ(prunedCount, static_cast<double>(estimated));
    EXPECT_EQ(prunedCount + simulated,
              static_cast<double>(results.size()));
}

TEST(CritPathSweep, RecordingSweepAttachesRunsAndCountsThem)
{
    ExperimentSweep sweep = smallSweep();
    const auto registry = std::make_shared<MetricsRegistry>();
    sweep.withCriticalPath().withTelemetry(registry);
    const std::vector<SweepResult> results = sweep.run();
    for (const SweepResult &result : results) {
        SCOPED_TRACE(result.benchmark + "/" + result.configLabel);
        ASSERT_NE(result.report.critpath, nullptr);
        EXPECT_EQ(result.report.critpath->path.criticalDuration(),
                  result.report.iterationTime);
    }
    EXPECT_EQ(registry->counter("critpath.records").value(),
              static_cast<double>(results.size()));
}

TEST(CritPathSweep, ObservedPointsReuseTheLaneScratch)
{
    // The sweep's point pipeline on one lane scratch: after the first
    // observed point has sized the analysis buffers, a second point of
    // the same pair reuses them and reports the same path.
    const GanModel model = makeBenchmark("DCGAN");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    CompiledModelCache cache;
    MemoCache<IterationTemplate> templates;
    ExecScratch scratch;
    Instrumentation instruments;
    instruments.telemetry = std::make_shared<MetricsRegistry>();
    instruments.critpath = true;
    const std::string key = pairFingerprint(model, config);
    const auto simulate = [&] {
        const PreparedPoint point =
            preparePoint(model, config, key, cache, templates);
        return simulatePoint(point, scratch, 1, instruments);
    };
    const auto buffers = [&] {
        ExecScratch::Analysis &a = scratch.analysis();
        return std::vector<const void *>{
            a.unmet.data(),     a.depthPops.data(), a.readyPops.data(),
            a.inflightPops.data(), a.lateEnd.data(), a.lateStart.data()};
    };
    const SweepResult first = simulate();
    const std::vector<const void *> sized = buffers();
    for (const void *buffer : sized)
        EXPECT_NE(buffer, nullptr);
    const SweepResult second = simulate();
    EXPECT_EQ(buffers(), sized);
    ASSERT_NE(first.report.critpath, nullptr);
    ASSERT_NE(second.report.critpath, nullptr);
    EXPECT_EQ(second.report.critpath->path.slack,
              first.report.critpath->path.slack);
    EXPECT_EQ(instruments.telemetry->counter("critpath.records").value(),
              2.0);
}

} // namespace
} // namespace lergan
