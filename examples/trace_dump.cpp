/**
 * @file
 * Trace one training iteration and export it in the Chrome trace-event
 * format (open chrome://tracing or https://ui.perfetto.dev and load the
 * file) to see how items pipeline through banks and where wires contend.
 * The export includes counter tracks — event-queue depth, ready/inflight
 * task counts, transfer occupancy and the busiest wire's busy curve —
 * rendered by Perfetto as line charts above the task spans.
 *
 * Usage:
 *   ./build/examples/trace_dump --benchmark cGAN --batch 8 \
 *       --out /tmp/lergan_trace.json [--metrics /tmp/metrics.prom]
 */

#include <fstream>
#include <iostream>

#include "common/args.hh"
#include "core/api.hh"
#include "sim/trace_tracks.hh"
#include "sim/utilization.hh"
#include "telemetry/metrics.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;

    ArgParser args;
    args.addOption("benchmark", "Table V benchmark name", "cGAN");
    args.addOption("batch", "training minibatch size", "8");
    args.addOption("degree", "duplication degree: low/middle/high", "low");
    args.addOption("out", "Chrome trace output path",
                   "lergan_trace.json");
    args.addOption("timeline", "also print the first N timeline rows",
                   "20");
    args.addOption("metrics",
                   "also write a Prometheus-style metrics snapshot of "
                   "the iteration to this path");
    args.parse(argc, argv, "export a Chrome trace of one iteration");

    ReplicaDegree degree = ReplicaDegree::Low;
    if (args.get("degree") == "middle")
        degree = ReplicaDegree::Middle;
    else if (args.get("degree") == "high")
        degree = ReplicaDegree::High;

    AcceleratorConfig config = AcceleratorConfig::lerGan(degree);
    config.batchSize = args.getInt("batch");

    const GanModel model = makeBenchmark(args.get("benchmark"));
    LerGanAccelerator accelerator(model, config);

    // Tracing also records the sim.queue.depth / sim.ready.tasks /
    // sim.inflight.tasks counter tracks; the registry (used only when
    // --metrics is given) accumulates the numeric rollups of the same
    // run.
    MetricsRegistry registry;
    MetricsRegistry *metrics =
        args.given("metrics") ? &registry : nullptr;
    const auto tmpl = accelerator.makeIterationTemplate();
    Tracer tracer;
    const TrainingReport report =
        accelerator.trainIterations(1, &tracer, metrics, tmpl.get());
    report.print(std::cout);

    std::cout << "\ntimeline head:\n";
    tracer.printTimeline(std::cout, args.getInt("timeline"));

    std::cout << "\nbusiest resources:\n";
    const std::vector<std::string> &names = *tmpl->resourceNames;
    printUtilization(std::cout, tmpl->graph, names, report.iterationTime,
                     10);

    // Derived counter tracks: how many transfers are in flight at each
    // instant, and the busiest wire's own busy/idle square wave.
    addSpanOccupancyTrack(tracer, TaskKind::Transfer, "ic.xfer.active");
    const std::size_t wire =
        busiestResource(tracer, tmpl->graph, ResourceCategory::Wire);
    if (wire != SIZE_MAX)
        addResourceOccupancyTrack(tracer, tmpl->graph, wire,
                                  names[wire] + ".busy");

    const std::string path = args.get("out");
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    tracer.exportChromeTrace(out, names);
    std::cout << "\nwrote " << tracer.events().size() << " events and "
              << tracer.counterSamples().size() << " counter samples to "
              << path << "\n";

    if (metrics) {
        const std::string metrics_path = args.get("metrics");
        std::ofstream mout(metrics_path);
        if (!mout) {
            std::cerr << "cannot open " << metrics_path
                      << " for writing\n";
            return 1;
        }
        registry.snapshot().writePrometheus(mout);
        std::cout << "wrote metrics snapshot to " << metrics_path
                  << "\n";
    }
    return 0;
}
