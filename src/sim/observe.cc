#include "sim/observe.hh"

#include <vector>

#include "common/logging.hh"

namespace lergan {

void
deriveObservers(const TaskGraph &graph, const ExecRecord &record,
                Tracer *tracer, MetricsRegistry *metrics)
{
    if (!tracer && !metrics)
        return;
    const std::size_t n = graph.size();
    LERGAN_ASSERT(record.popOrder.size() == 2 * n,
                  "record is not of a run of this graph: ",
                  record.popOrder.size(), " pops for ", n, " tasks");

    TrackId depthTrack = 0, readyTrack = 0, inflightTrack = 0;
    if (tracer) {
        tracer->bindTasks(graph.identity());
        tracer->reserve(n, 6 * n);
        depthTrack = tracer->track("sim.queue.depth");
        readyTrack = tracer->track("sim.ready.tasks");
        inflightTrack = tracer->track("sim.inflight.tasks");
    }
    HistogramBins depthBins, readyBins, inflightBins;

    std::vector<std::uint32_t> unmet(n);
    std::size_t ready = 0;
    for (TaskId id = 0; id < n; ++id) {
        unmet[id] = graph.dependencyCount(id);
        ready += unmet[id] == 0;
    }
    std::size_t inflight = 0;
    PicoSeconds now = 0;
    for (const std::uint32_t entry : record.popOrder) {
        const TaskId id = ExecRecord::popTask(entry);
        if (!ExecRecord::popIsCompletion(entry)) {
            --ready;
            ++inflight;
            if (tracer) {
                const auto resources = graph.resources(id);
                tracer->recordTask(static_cast<std::uint32_t>(id),
                                   record.start[id], record.end[id],
                                   resources.empty() ? SIZE_MAX
                                                     : resources.front());
            }
        } else {
            now = record.end[id];
            --inflight;
            for (const std::uint32_t succ : graph.successors(id))
                ready += --unmet[succ] == 0;
        }
        if (tracer) {
            tracer->recordCounter(depthTrack, now,
                                  static_cast<double>(ready + inflight));
            tracer->recordCounter(readyTrack, now,
                                  static_cast<double>(ready));
            tracer->recordCounter(inflightTrack, now,
                                  static_cast<double>(inflight));
        }
        if (metrics) {
            depthBins.observe(ready + inflight);
            readyBins.observe(ready);
            inflightBins.observe(inflight);
        }
    }

    if (metrics) {
        metrics->histogram("sim.queue.depth").add(depthBins);
        metrics->histogram("sim.ready.tasks").add(readyBins);
        metrics->histogram("sim.inflight.tasks").add(inflightBins);
        metrics->counter("sim.graph.runs").add(1);
        metrics->counter("sim.tasks.executed").add(n);
        metrics->histogram("sim.makespan_ps").observe(record.makespan);
    }
}

} // namespace lergan
