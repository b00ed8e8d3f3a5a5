/**
 * @file
 * Resource-utilization reporting over a finished simulation run.
 *
 * Reads the resources' busy times, which the executed graph froze, and
 * turns them into the utilization tables the examples and ablation
 * benches print (which wires saturate under H-tree, how evenly tiles
 * are loaded, ...), and folds the contention totals — busy from the
 * graph, wait from the run's scratch — into metrics by the category
 * each resource was created with.
 */

#ifndef LERGAN_SIM_UTILIZATION_HH
#define LERGAN_SIM_UTILIZATION_HH

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "sim/task_graph.hh"
#include "telemetry/metrics.hh"

namespace lergan {

/** Utilization of one resource over a run. */
struct ResourceUsage {
    std::string name;
    PicoSeconds busy = 0;
    /** busy / makespan. */
    double utilization = 0.0;
    std::uint64_t reservations = 0;
};

/**
 * The @p top_k busiest of the resources named by @p names (indexed by
 * resource id) in a run of @p graph, given the run's makespan. Results
 * are sorted by busy time descending, ties broken by name, so the table
 * is stable across runs and platforms.
 */
std::vector<ResourceUsage>
topBusyResources(const TaskGraph &graph, std::span<const std::string> names,
                 PicoSeconds makespan, std::size_t top_k);

/** Print a "name busy util" table for the top @p top_k resources. */
void printUtilization(std::ostream &os, const TaskGraph &graph,
                      std::span<const std::string> names,
                      PicoSeconds makespan, std::size_t top_k);

/**
 * Fold every resource's busy/wait/reservation totals of the run of
 * @p graph that @p scratch last executed into @p registry as
 * sim.resource.{busy_ps,wait_ps,reservations}.<category> counters,
 * where the category is the graph's (compute, wire, switch, bus, cpu,
 * other). Counters only, so concurrent runs from a worker pool
 * accumulate worker-count-independent totals.
 */
void recordPoolMetrics(const TaskGraph &graph, const ExecScratch &scratch,
                       MetricsRegistry &registry);

} // namespace lergan

#endif // LERGAN_SIM_UTILIZATION_HH
