/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrate: event
 * queue bulk load, routing, reshape enumeration, the executor's
 * per-task cost over the Table V templates, the post-run metrics replay
 * and critical-path pass over their records, and whole-iteration
 * simulation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
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

/** A Table V point with its template built and frozen. */
struct TableVPoint {
    std::unique_ptr<LerGanAccelerator> acc;
    std::shared_ptr<const IterationTemplate> tmpl;
};

/** The 32 Table V points: 8 GANs x {prime, low, middle, high}. */
const std::vector<TableVPoint> &
tableVPoints()
{
    static const std::vector<TableVPoint> points = [] {
        std::vector<TableVPoint> built;
        for (const GanModel &model : allBenchmarks()) {
            for (const AcceleratorConfig &config :
                 {AcceleratorConfig::prime(),
                  AcceleratorConfig::lerGan(ReplicaDegree::Low),
                  AcceleratorConfig::lerGan(ReplicaDegree::Middle),
                  AcceleratorConfig::lerGan(ReplicaDegree::High)}) {
                TableVPoint point;
                point.acc = std::make_unique<LerGanAccelerator>(model, config);
                point.tmpl = point.acc->makeIterationTemplate();
                built.push_back(std::move(point));
            }
        }
        return built;
    }();
    return points;
}

/**
 * Execute-only pass over the 32 Table V templates: every iteration
 * resets each point's pool and executes its frozen graph once,
 * unrecorded (arg 0) or with an ExecRecord attached (arg 1). Templates
 * are built and frozen before timing starts. The ns_per_task counter is
 * the executor's per-task cost, reproducible without perfbench.
 */
void
BM_ExecuteTableV(benchmark::State &state)
{
    const std::vector<TableVPoint> &points = tableVPoints();
    ExecScratch scratch;
    ExecRecord record;
    ExecRecord *const run = state.range(0) != 0 ? &record : nullptr;
    std::size_t tasks = 0;
    for (const TableVPoint &point : points) {
        tasks += point.tmpl->graph.size();
        // Freeze and size the scratch and record outside the timing.
        point.tmpl->graph.execute(point.acc->machine().pool(), &scratch,
                                  run);
    }
    std::chrono::nanoseconds executing{0};
    for (auto _ : state) {
        for (const TableVPoint &point : points) {
            ResourcePool &pool = point.acc->machine().pool();
            pool.resetAll();
            const auto begin = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(
                point.tmpl->graph.execute(pool, &scratch, run));
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
    for (const TableVPoint &point : tableVPoints()) {
        ResourcePool &pool = point.acc->machine().pool();
        pool.resetAll();
        Recorded run{&point.tmpl->graph, point.acc->resourceNames(), {}};
        run.graph->execute(pool, nullptr, &run.record);
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
