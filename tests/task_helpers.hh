/**
 * @file
 * Shorthand for tests that build task graphs and traces by hand.
 */

#ifndef LERGAN_TESTS_TASK_HELPERS_HH
#define LERGAN_TESTS_TASK_HELPERS_HH

#include <string_view>
#include <vector>

#include "sim/task_graph.hh"
#include "sim/trace.hh"

namespace lergan {

/**
 * Add a task labelled @p name (a marker unless @p kind says otherwise)
 * holding @p resources for @p duration; @return its id.
 */
inline TaskId
addNamedTask(TaskGraph &graph, std::string_view name,
             const std::vector<std::size_t> &resources,
             PicoSeconds duration, TaskKind kind = TaskKind::Marker,
             Phase phase = Phase::Other)
{
    return graph.addTask({kind, phase, graph.intern(name), 0,
                          graph.internResources(resources), duration});
}

/**
 * Record in @p tracer one run, [@p start, @p end) on @p lane, of a new
 * task of @p graph added as addNamedTask(graph, name, {}, ...) does.
 * The tracer is bound to @p graph's identity table.
 */
inline void
recordNamedTask(Tracer &tracer, TaskGraph &graph, std::string_view name,
                PicoSeconds start, PicoSeconds end, std::size_t lane,
                TaskKind kind = TaskKind::Marker,
                Phase phase = Phase::Other)
{
    const TaskId id =
        addNamedTask(graph, name, {}, end - start, kind, phase);
    tracer.bindTasks(graph.identity());
    tracer.recordTask(static_cast<std::uint32_t>(id), start, end, lane);
}

} // namespace lergan

#endif // LERGAN_TESTS_TASK_HELPERS_HH
