/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrate: event
 * queue bulk load, routing, reshape enumeration, the executor's
 * per-task cost over the Table V templates and whole-iteration
 * simulation.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "core/api.hh"
#include "sim/calendar_queue.hh"
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

/**
 * Execute-only pass over the 32 Table V templates (8 GANs x {prime,
 * low, middle, high}): every iteration resets each point's pool and
 * executes its frozen graph once, unrecorded (arg 0) or with an
 * ExecRecord attached (arg 1). Templates are built and frozen before
 * timing starts. The ns_per_task counter is the executor's per-task
 * cost, reproducible without perfbench.
 */
void
BM_ExecuteTableV(benchmark::State &state)
{
    struct Point {
        std::unique_ptr<LerGanAccelerator> acc;
        std::shared_ptr<const IterationTemplate> tmpl;
    };
    static const std::vector<Point> points = [] {
        std::vector<Point> built;
        for (const GanModel &model : allBenchmarks()) {
            for (const AcceleratorConfig &config :
                 {AcceleratorConfig::prime(),
                  AcceleratorConfig::lerGan(ReplicaDegree::Low),
                  AcceleratorConfig::lerGan(ReplicaDegree::Middle),
                  AcceleratorConfig::lerGan(ReplicaDegree::High)}) {
                Point point;
                point.acc = std::make_unique<LerGanAccelerator>(model, config);
                point.tmpl = point.acc->makeIterationTemplate();
                built.push_back(std::move(point));
            }
        }
        return built;
    }();
    ExecScratch scratch;
    ExecRecord record;
    ExecRecord *const run = state.range(0) != 0 ? &record : nullptr;
    std::size_t tasks = 0;
    for (const Point &point : points) {
        tasks += point.tmpl->graph.size();
        // Freeze and size the scratch and record outside the timing.
        point.tmpl->graph.execute(point.acc->machine().pool(), &scratch,
                                  run);
    }
    std::chrono::nanoseconds executing{0};
    for (auto _ : state) {
        for (const Point &point : points) {
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
