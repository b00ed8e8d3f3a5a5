/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrate: event
 * queue bulk load, routing, reshape enumeration, the Table V
 * iteration-template build, the executor's per-task cost over those
 * templates and their graph freeze, the post-run metrics replay,
 * critical-path pass and makespan bounds over their records, one warm
 * sweep point, and whole-iteration simulation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "core/api.hh"
#include "critpath/critpath.hh"
#include "critpath/whatif.hh"
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
                             TaskEvent(i, false));
        TaskEvent event;
        TaskId fired = 0;
        while (queue.pop(event))
            fired += event.task();
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
 * The iteration-template build: makeIterationTemplate over the 32
 * Table V pairs, timed per call, on a fresh accelerator per call (arg
 * 0: the machine's route cache starts cold, as a cold sweep point
 * builds) or on one accelerator per pair that built its template once
 * before timing (arg 1: every route is cached). Models are compiled and
 * accelerators constructed outside the timing, and each template is
 * dropped outside it too. ns_per_task is the build per task.
 */
void
BM_BuildTemplateTableV(benchmark::State &state)
{
    const bool warm = state.range(0) != 0;
    struct Pair {
        GanModel model;
        AcceleratorConfig config;
        std::shared_ptr<const CompiledGan> compiled;
    };
    std::vector<Pair> pairs;
    for (const GanModel &model : allBenchmarks()) {
        for (const AcceleratorConfig &config : tableVConfigs())
            pairs.push_back({model, config,
                             std::make_shared<const CompiledGan>(
                                 compileGan(model, config))});
    }
    const auto accelerator = [](const Pair &pair) {
        return std::make_unique<LerGanAccelerator>(pair.model, pair.config,
                                                   pair.compiled);
    };
    std::vector<std::unique_ptr<LerGanAccelerator>> reused;
    if (warm) {
        for (const Pair &pair : pairs) {
            reused.push_back(accelerator(pair));
            reused.back()->makeIterationTemplate();
        }
    }
    std::chrono::nanoseconds building{0};
    double tasks = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            std::unique_ptr<LerGanAccelerator> fresh;
            if (!warm)
                fresh = accelerator(pairs[i]);
            LerGanAccelerator &acc = warm ? *reused[i] : *fresh;
            const auto begin = std::chrono::steady_clock::now();
            const auto tmpl = acc.makeIterationTemplate();
            building += std::chrono::steady_clock::now() - begin;
            benchmark::DoNotOptimize(tmpl.get());
            tasks += static_cast<double>(tmpl->graph.size());
        }
    }
    state.counters["ns_per_task"] =
        static_cast<double>(building.count()) / tasks;
}
BENCHMARK(BM_BuildTemplateTableV)
    ->ArgName("warm")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

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
 * The graph freeze: the first execute of each of the 32 Table V
 * templates, built afresh every iteration (the build is not timed), on
 * one reused scratch. ns_per_task is that first execute per task: the
 * freeze (successor CSR, resource classes, per-resource totals) plus
 * one run. The other counters describe the templates: interned
 * resource sets and classes per template, and the resource and class
 * slots a task reserves.
 */
void
BM_FreezeTableV(benchmark::State &state)
{
    std::vector<std::unique_ptr<LerGanAccelerator>> accelerators;
    for (const GanModel &model : allBenchmarks()) {
        for (const AcceleratorConfig &config : tableVConfigs())
            accelerators.push_back(
                std::make_unique<LerGanAccelerator>(model, config));
    }
    ExecScratch scratch;
    std::chrono::nanoseconds freezing{0};
    double tasks = 0, sets = 0, classes = 0, resSlots = 0, classSlots = 0;
    for (auto _ : state) {
        for (const auto &accelerator : accelerators) {
            const auto tmpl = accelerator->makeIterationTemplate();
            const TaskGraph &graph = tmpl->graph;
            const auto begin = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(graph.execute(&scratch));
            freezing += std::chrono::steady_clock::now() - begin;
            const ResourceClasses view = graph.resourceClasses();
            tasks += static_cast<double>(graph.size());
            sets += static_cast<double>(graph.resourceSetCount());
            classes += static_cast<double>(view.count);
            classSlots += static_cast<double>(view.slot(graph.size()));
            for (TaskId id = 0; id < graph.size(); ++id)
                resSlots += static_cast<double>(graph.resources(id).size());
        }
    }
    const double templates =
        static_cast<double>(state.iterations() * accelerators.size());
    state.counters["ns_per_task"] =
        static_cast<double>(freezing.count()) / tasks;
    state.counters["sets"] = sets / templates;
    state.counters["classes"] = classes / templates;
    state.counters["res_slots_per_task"] = resSlots / tasks;
    state.counters["class_slots_per_task"] = classSlots / tasks;
}
BENCHMARK(BM_FreezeTableV)->Unit(benchmark::kMillisecond);

/**
 * The two post-run passes of an observed sweep point over the 32 Table
 * V records, taken once before timing: the sim.* metrics replay
 * (deriveObservers, arg 0) and critical-path extraction with its slack
 * pass (arg 1), both on one reused scratch as a sweep lane runs them;
 * and the makespan bounds a pruning sweep computes per point
 * (makespanBounds, arg 2). The us_per_point counter is one pass over
 * one point.
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
            } else if (state.range(0) == 1) {
                benchmark::DoNotOptimize(extractCriticalPath(
                    *run.graph, run.record, run.names, &scratch));
            } else {
                benchmark::DoNotOptimize(
                    makespanBounds(*run.graph, run.names.size()));
            }
        }
        benchmark::ClobberMemory();
    }
    state.counters["us_per_point"] = benchmark::Counter(
        1e-6 * static_cast<double>(recorded.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_AnalyzeTableV)
    ->ArgName("critpath")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

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
