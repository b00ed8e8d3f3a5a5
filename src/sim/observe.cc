#include "sim/observe.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace lergan {

namespace {

/**
 * Replay @p record's pops against @p graph's successor CSR, calling
 * visit(entry, ready, inflight) after each pop with the executor's
 * ready and in-flight counts at that pop. @p unmet is the replay's
 * dependency-counter buffer.
 *
 * A template so that the common call, metrics without a Tracer, gets a
 * loop with no trace work in it. On the Table V micro-benchmark
 * (bench/micro_sim BM_AnalyzeTableV/critpath:0, best of 10, 8
 * alternating runs on a shared 4-vCPU host) that replay took 84-137 us
 * per point against 105-205 us for one loop that tests the tracer on
 * every pop, and 92-161 us for this template counting behind a
 * pointer test instead of in the visitor.
 */
template <typename Visit>
void
replayPops(const TaskGraph &graph, const ExecRecord &record,
           std::vector<std::uint32_t> &unmet, Visit visit)
{
    const std::size_t n = graph.size();
    unmet.resize(n);
    std::size_t ready = 0;
    for (TaskId id = 0; id < n; ++id) {
        unmet[id] = graph.dependencyCount(id);
        ready += unmet[id] == 0;
    }
    const SuccessorCsr successors = graph.successorCsr();
    std::uint32_t *const waiting = unmet.data();
    std::size_t inflight = 0;
    for (const std::uint32_t entry : record.popOrder) {
        if (!ExecRecord::popIsCompletion(entry)) {
            --ready;
            ++inflight;
        } else {
            --inflight;
            for (const std::uint32_t succ :
                 successors.of(ExecRecord::popTask(entry)))
                ready += --waiting[succ] == 0;
        }
        visit(entry, ready, inflight);
    }
}

/**
 * The pops seen at each queue depth, ready count and in-flight count:
 * the three sim.* histograms' samples, counted by value into the
 * scratch's zeroed arrays (each at least n + 1 long).
 */
struct PopCounts {
    std::uint32_t *depth, *ready, *inflight;
    /** Largest depth counted; it bounds the other two counts. */
    std::size_t top = 0;

    void
    add(std::size_t readyNow, std::size_t inflightNow)
    {
        const std::size_t depthNow = readyNow + inflightNow;
        ++depth[depthNow];
        ++ready[readyNow];
        ++inflight[inflightNow];
        top = std::max(top, depthNow);
    }
};

/**
 * Bin the samples @p pops counts (pops[v] samples of value v, for
 * v <= @p top) and clear those counts: the totals of one
 * HistogramBins::observe per sample, for one step per distinct value.
 */
HistogramBins
foldPops(std::uint32_t *pops, std::size_t top)
{
    HistogramBins bins;
    for (std::size_t value = 0; value <= top; ++value) {
        const std::uint64_t times = pops[value];
        if (times == 0)
            continue;
        pops[value] = 0;
        bins.buckets[Histogram::bucketOf(value)] += times;
        bins.count += times;
        bins.sum += times * value;
        bins.min = std::min<std::uint64_t>(bins.min, value);
        bins.max = value;
    }
    return bins;
}

} // namespace

void
deriveObservers(const TaskGraph &graph, const ExecRecord &record,
                Tracer *tracer, MetricsRegistry *metrics,
                ExecScratch &scratch)
{
    if (!tracer && !metrics)
        return;
    const std::size_t n = graph.size();
    LERGAN_ASSERT(record.popOrder.size() == 2 * n,
                  "record is not of a run of this graph: ",
                  record.popOrder.size(), " pops for ", n, " tasks");

    ExecScratch::Analysis &buffers = scratch.analysis();
    // Every count is at most n, so n + 1 slots hold each histogram's
    // samples by value; slots past the previous size start at zero.
    if (metrics) {
        for (auto *pops : {&buffers.depthPops, &buffers.readyPops,
                           &buffers.inflightPops})
            if (pops->size() <= n)
                pops->resize(n + 1);
    }
    PopCounts counts{buffers.depthPops.data(), buffers.readyPops.data(),
                     buffers.inflightPops.data()};

    if (!tracer) {
        replayPops(graph, record, buffers.unmet,
                   [&](std::uint32_t, std::size_t ready,
                       std::size_t inflight) { counts.add(ready, inflight); });
    } else {
        tracer->bindTasks(graph.identity());
        tracer->reserve(n, 6 * n);
        const TrackId depthTrack = tracer->track("sim.queue.depth");
        const TrackId readyTrack = tracer->track("sim.ready.tasks");
        const TrackId inflightTrack = tracer->track("sim.inflight.tasks");
        PicoSeconds now = 0;
        replayPops(
            graph, record, buffers.unmet,
            [&](std::uint32_t entry, std::size_t ready,
                std::size_t inflight) {
                const TaskId id = ExecRecord::popTask(entry);
                if (!ExecRecord::popIsCompletion(entry)) {
                    const auto resources = graph.resources(id);
                    tracer->recordTask(static_cast<std::uint32_t>(id),
                                       record.start[id], record.end[id],
                                       resources.empty()
                                           ? SIZE_MAX
                                           : resources.front());
                } else {
                    now = record.end[id];
                }
                tracer->recordCounter(depthTrack, now,
                                      static_cast<double>(ready + inflight));
                tracer->recordCounter(readyTrack, now,
                                      static_cast<double>(ready));
                tracer->recordCounter(inflightTrack, now,
                                      static_cast<double>(inflight));
                if (metrics)
                    counts.add(ready, inflight);
            });
    }

    if (metrics) {
        metrics->histogram("sim.queue.depth")
            .add(foldPops(counts.depth, counts.top));
        metrics->histogram("sim.ready.tasks")
            .add(foldPops(counts.ready, counts.top));
        metrics->histogram("sim.inflight.tasks")
            .add(foldPops(counts.inflight, counts.top));
        metrics->counter("sim.graph.runs").add(1);
        metrics->counter("sim.tasks.executed").add(n);
        metrics->histogram("sim.makespan_ps").observe(record.makespan);
    }
}

} // namespace lergan
