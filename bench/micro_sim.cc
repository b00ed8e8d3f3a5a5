/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrate: event
 * queue bulk load, routing, reshape enumeration, the executor's
 * per-task cost over the Table V templates, the post-run metrics replay
 * and critical-path pass over their records, one warm sweep point, and
 * whole-iteration simulation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "core/api.hh"
#include "critpath/critpath.hh"
#include "sim/calendar_queue.hh"
#include "sim/observe.hh"
#include "zfdr/reshape.hh"

namespace {

using namespace lergan;

/**
 * Bulk load then drain: schedule n task events at n distinct, shuffled
 * times, pop them all. Every window carve rescans the whole far level,
 * so per-event cost grows with n — this case tracks that growth.
 */
void
BM_CalendarQueueBulkLoad(benchmark::State &state)
{
    const TaskId n = static_cast<TaskId>(state.range(0));
    sim::CalendarQueue<TaskEvent> queue;
    for (auto _ : state) {
        queue.reset();
        // 7919 is odd, so i * 7919 mod n (n a power of two) permutes
        // [0, n).
        for (TaskId i = 0; i < n; ++i)
            queue.scheduleAt(static_cast<PicoSeconds>(i * 7919 % n),
                             TaskEvent{i, false});
        TaskEvent event;
        TaskId fired = 0;
        while (queue.pop(event))
            fired += event.task;
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CalendarQueueBulkLoad)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 16);

void
BM_RouteHTree(benchmark::State &state)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    Machine machine(config);
    int i = 0;
    for (auto _ : state) {
        // Alternate endpoints to defeat the route cache.
        const Route route = machine.topo().route(
            machine.bank(0).tiles[i % 16],
            machine.bank(5).tiles[(i * 7) % 16]);
        benchmark::DoNotOptimize(route.latencyNs);
        ++i;
    }
}
BENCHMARK(BM_RouteHTree);

void
BM_ReshapeAnalysis(benchmark::State &state)
{
    const GanModel model = makeBenchmark("DCGAN");
    const auto ops = opsForPhase(model, Phase::GFwd);
    for (auto _ : state) {
        for (const LayerOp &op : ops) {
            if (!op.zfdrApplicable())
                continue;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            benchmark::DoNotOptimize(analysis.distinctMatrices());
        }
    }
}
BENCHMARK(BM_ReshapeAnalysis);

void
BM_CompileGan(benchmark::State &state)
{
    const GanModel model = makeBenchmark("DCGAN");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Middle);
    for (auto _ : state) {
        const CompiledGan compiled = compileGan(model, config);
        benchmark::DoNotOptimize(compiled.crossbarsUsed);
    }
}
BENCHMARK(BM_CompileGan);

/** The Table V configs: prime, low, middle, high. */
std::vector<AcceleratorConfig>
tableVConfigs()
{
    return {AcceleratorConfig::prime(),
            AcceleratorConfig::lerGan(ReplicaDegree::Low),
            AcceleratorConfig::lerGan(ReplicaDegree::Middle),
            AcceleratorConfig::lerGan(ReplicaDegree::High)};
}

/** The 32 Table V templates, built and frozen: 8 GANs x
 *  {prime, low, middle, high}. */
const std::vector<std::shared_ptr<const IterationTemplate>> &
tableVTemplates()
{
    static const auto templates = [] {
        std::vector<std::shared_ptr<const IterationTemplate>> built;
        for (const GanModel &model : allBenchmarks()) {
            for (const AcceleratorConfig &config : tableVConfigs())
                built.push_back(LerGanAccelerator(model, config)
                                    .makeIterationTemplate());
        }
        return built;
    }();
    return templates;
}

/**
 * Execute-only pass over the 32 Table V templates: every iteration
 * executes each frozen graph once on one scratch, unrecorded (arg 0)
 * or with an ExecRecord attached (arg 1). Templates
 * are built and frozen before timing starts. The ns_per_task counter is
 * the executor's per-task cost, reproducible without perfbench.
 */
void
BM_ExecuteTableV(benchmark::State &state)
{
    const auto &templates = tableVTemplates();
    ExecScratch scratch;
    ExecRecord record;
    ExecRecord *const run = state.range(0) != 0 ? &record : nullptr;
    std::size_t tasks = 0;
    for (const auto &tmpl : templates) {
        tasks += tmpl->graph.size();
        // Freeze and size the scratch and record outside the timing.
        tmpl->graph.execute(&scratch, run);
    }
    std::chrono::nanoseconds executing{0};
    for (auto _ : state) {
        for (const auto &tmpl : templates) {
            const auto begin = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(tmpl->graph.execute(&scratch, run));
            executing += std::chrono::steady_clock::now() - begin;
        }
    }
    const double executed =
        static_cast<double>(state.iterations()) * static_cast<double>(tasks);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
    state.counters["ns_per_task"] =
        static_cast<double>(executing.count()) / executed;
}
BENCHMARK(BM_ExecuteTableV)->ArgName("recorded")->Arg(0)->Arg(1);

/**
 * The two post-run passes of an observed sweep point over the 32 Table
 * V records, taken once before timing: the sim.* metrics replay
 * (deriveObservers, arg 0) and critical-path extraction with its slack
 * pass (arg 1), both on one reused scratch as a sweep lane runs them.
 * The us_per_point counter is one pass over one point.
 */
void
BM_AnalyzeTableV(benchmark::State &state)
{
    struct Recorded {
        const TaskGraph *graph;
        std::vector<std::string> names;
        ExecRecord record;
    };
    std::vector<Recorded> recorded;
    for (const auto &tmpl : tableVTemplates()) {
        Recorded run{&tmpl->graph, *tmpl->resourceNames, {}};
        run.graph->execute(nullptr, &run.record);
        recorded.push_back(std::move(run));
    }
    ExecScratch scratch;
    MetricsRegistry metrics;
    for (auto _ : state) {
        for (const Recorded &run : recorded) {
            if (state.range(0) == 0) {
                deriveObservers(*run.graph, run.record, nullptr, &metrics,
                                scratch);
            } else {
                benchmark::DoNotOptimize(extractCriticalPath(
                    *run.graph, run.record, run.names, &scratch));
            }
        }
        benchmark::ClobberMemory();
    }
    state.counters["us_per_point"] = benchmark::Counter(
        1e-6 * static_cast<double>(recorded.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_AnalyzeTableV)->ArgName("critpath")->Arg(0)->Arg(1);

/**
 * One warm sweep point, as a sweep lane runs it: preparePoint (both
 * caches hit) then simulatePoint on the lane's scratch, unobserved,
 * over the 16 points Table V x {prime, low}. Keys are formatted and
 * both caches filled before timing starts. The us_per_point counter is
 * the whole point: cache lookups, execution and report.
 */
void
BM_WarmPointTableV(benchmark::State &state)
{
    struct Point {
        GanModel model;
        AcceleratorConfig config;
        std::string key;
    };
    std::vector<Point> points;
    const std::vector<AcceleratorConfig> configs = tableVConfigs();
    for (const GanModel &model : allBenchmarks()) {
        // The first two Table V configs: prime and low.
        for (const AcceleratorConfig &config :
             std::span(configs).first(2))
            points.push_back({model, config, pairFingerprint(model, config)});
    }
    CompiledModelCache cache;
    MemoCache<IterationTemplate> templates;
    ExecScratch scratch;
    const Instrumentation unobserved;
    const auto runAll = [&] {
        for (const Point &point : points) {
            const PreparedPoint prepared = preparePoint(
                point.model, point.config, point.key, cache, templates);
            benchmark::DoNotOptimize(
                simulatePoint(prepared, scratch, 10, unobserved)
                    .report.iterationTime);
        }
    };
    runAll();
    for (auto _ : state)
        runAll();
    if (templates.misses() != points.size())
        state.SkipWithError("a timed point missed the template cache");
    state.counters["us_per_point"] = benchmark::Counter(
        1e-6 * static_cast<double>(points.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_WarmPointTableV);

void
BM_TrainIteration(benchmark::State &state)
{
    const GanModel model = makeBenchmark("cGAN");
    LerGanAccelerator acc(model,
                          AcceleratorConfig::lerGan(ReplicaDegree::Low));
    for (auto _ : state) {
        const TrainingReport report = acc.trainIterations();
        benchmark::DoNotOptimize(report.iterationTime);
    }
}
BENCHMARK(BM_TrainIteration);

} // namespace

BENCHMARK_MAIN();
