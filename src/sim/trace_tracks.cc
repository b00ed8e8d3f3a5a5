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
        if (tracer.kind(event) == kind)
            intervals.emplace_back(event.start, event.end);
    return recordOccupancy(tracer, intervals, track);
}

std::size_t
addLaneOccupancyTrack(Tracer &tracer, std::size_t lane,
                      const std::string &track)
{
    std::vector<std::pair<PicoSeconds, PicoSeconds>> intervals;
    for (const TraceEvent &event : tracer.events())
        if (event.lane == lane)
            intervals.emplace_back(event.start, event.end);
    return recordOccupancy(tracer, intervals, track);
}

std::size_t
busiestLane(const Tracer &tracer,
            const std::vector<std::string> &lane_names,
            const std::string &name_fragment)
{
    std::vector<PicoSeconds> busy(lane_names.size(), 0);
    for (const TraceEvent &event : tracer.events())
        if (event.lane < busy.size())
            busy[event.lane] += event.end - event.start;
    std::size_t best = SIZE_MAX;
    for (std::size_t lane = 0; lane < lane_names.size(); ++lane) {
        if (lane_names[lane].find(name_fragment) == std::string::npos)
            continue;
        if (busy[lane] == 0)
            continue;
        if (best == SIZE_MAX || busy[lane] > busy[best])
            best = lane;
    }
    return best;
}

} // namespace lergan
