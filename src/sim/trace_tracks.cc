#include "sim/trace_tracks.hh"

#include <algorithm>
#include <map>

namespace lergan {

namespace {

/**
 * Turn a set of [start, end) intervals into a step curve of how many
 * are active at once, recorded as counter samples on @p track.
 */
std::size_t
recordOccupancy(Tracer &tracer,
                const std::vector<std::pair<PicoSeconds, PicoSeconds>>
                    &intervals,
                const std::string &track)
{
    // +1 at each start, -1 at each end; a map keeps instants sorted and
    // merges edges that coincide.
    std::map<PicoSeconds, long> edges;
    for (const auto &[start, end] : intervals) {
        edges[start] += 1;
        edges[end] -= 1;
    }
    long active = 0;
    std::size_t samples = 0;
    for (const auto &[time, delta] : edges) {
        if (delta == 0)
            continue;
        active += delta;
        tracer.recordCounter(track, time, static_cast<double>(active));
        ++samples;
    }
    return samples;
}

} // namespace

std::size_t
addSpanOccupancyTrack(Tracer &tracer, TaskKind kind,
                      const std::string &track)
{
    std::vector<std::pair<PicoSeconds, PicoSeconds>> intervals;
    for (const TraceEvent &event : tracer.events())
        if (tracer.tasks()->kinds[event.task] == kind)
            intervals.emplace_back(event.start, event.end);
    return recordOccupancy(tracer, intervals, track);
}

std::size_t
addResourceOccupancyTrack(Tracer &tracer, const TaskGraph &graph,
                          std::size_t resource, const std::string &track)
{
    std::vector<std::pair<PicoSeconds, PicoSeconds>> intervals;
    for (const TraceEvent &event : tracer.events())
        if (std::ranges::count(graph.resources(event.task), resource))
            intervals.emplace_back(event.start, event.end);
    return recordOccupancy(tracer, intervals, track);
}

std::size_t
busiestResource(const Tracer &tracer, const TaskGraph &graph,
                ResourceCategory category)
{
    std::vector<PicoSeconds> busy(graph.resourceBound(), 0);
    for (const TraceEvent &event : tracer.events())
        for (const std::uint32_t rid : graph.resources(event.task))
            if (graph.resourceCategory(rid) == category)
                busy[rid] += event.end - event.start;
    const auto best = std::max_element(busy.begin(), busy.end());
    return best == busy.end() || *best == 0
               ? SIZE_MAX
               : static_cast<std::size_t>(best - busy.begin());
}

} // namespace lergan
