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
 * Record a counter track named @p track sampling how many traced tasks
 * holding resource @p resource, in any slot of their resource list in
 * @p graph (the graph the events come from), are active at once: for a
 * FIFO resource, its 0/1 busy curve.
 *
 * @return the number of samples recorded.
 */
std::size_t addResourceOccupancyTrack(Tracer &tracer,
                                      const TaskGraph &graph,
                                      std::size_t resource,
                                      const std::string &track);

/**
 * The resource of category @p category with the largest summed time of
 * the traced tasks holding it (any slot, as above); ties go to the
 * lowest id.
 *
 * @return the resource id, or SIZE_MAX when no such resource was busy.
 */
std::size_t busiestResource(const Tracer &tracer, const TaskGraph &graph,
                            ResourceCategory category);

} // namespace lergan

#endif // LERGAN_SIM_TRACE_TRACKS_HH
