/**
 * @file
 * Derived Chrome counter tracks over a recorded trace.
 *
 * A Tracer's task spans already say *what ran when*; these helpers turn
 * them into sampled gauges — "how many transfers were in flight", "was
 * this wire busy" — recorded as counter samples ("ph":"C") that
 * Perfetto renders as curves next to the task spans.
 */

#ifndef LERGAN_SIM_TRACE_TRACKS_HH
#define LERGAN_SIM_TRACE_TRACKS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace lergan {

/**
 * Record a counter track named @p track sampling how many spans of
 * tasks of kind @p kind are concurrently active.
 *
 * @return the number of samples recorded.
 */
std::size_t addSpanOccupancyTrack(Tracer &tracer, TaskKind kind,
                                  const std::string &track);

/**
 * Record a counter track named @p track sampling how many spans
 * recorded on display lane @p lane are concurrently active (for a FIFO
 * resource this is its 0/1 busy curve).
 *
 * @return the number of samples recorded.
 */
std::size_t addLaneOccupancyTrack(Tracer &tracer, std::size_t lane,
                                  const std::string &track);

/**
 * The lane with the largest summed span time among lanes whose
 * resource name (in @p lane_names, indexed by lane id) contains
 * @p name_fragment.
 *
 * @return the lane id, or SIZE_MAX when no lane matches.
 */
std::size_t busiestLane(const Tracer &tracer,
                        const std::vector<std::string> &lane_names,
                        const std::string &name_fragment);

} // namespace lergan

#endif // LERGAN_SIM_TRACE_TRACKS_HH
