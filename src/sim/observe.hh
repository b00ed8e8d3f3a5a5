/**
 * @file
 * Observers of a task-graph run, derived from its ExecRecord.
 *
 * TaskGraph::execute has no observer hooks; it writes only the record.
 * deriveObservers replays the record's pop order against the graph's
 * successor CSR in one pass and produces what in-loop observers would
 * have seen, sample for sample:
 *  - a Tracer's task events for a Chrome export, in fire order,
 *    identified by TaskId in the graph's shared identity table (the
 *    audit and the phase report read the record itself);
 *  - its sim.queue.depth / sim.ready.tasks / sim.inflight.tasks counter
 *    samples, one triple per popped event, at the pop's instant;
 *  - the same three sim.* histograms plus the sim.graph.runs,
 *    sim.tasks.executed and sim.makespan_ps metrics, merged into the
 *    registry once. Each pop only counts itself at its depth, ready and
 *    in-flight values (all at most n); after the replay each count
 *    array folds into HistogramBins once, one step per distinct value,
 *    with exactly the buckets, count, sum, min and max one observe()
 *    per pop would have given.
 *
 * The replay needs no event queue. A task is ready from the pop of the
 * completion that released it (or from the start, for a source) until
 * its fire pops, and in flight from its fire until its completion pops;
 * a fire pops at its release instant, so every pop's instant is the end
 * time of the last completion popped (0 before the first). With no
 * cancellation, every queued event is a pending fire or completion, so
 * the queue depth is ready + in flight.
 */

#ifndef LERGAN_SIM_OBSERVE_HH
#define LERGAN_SIM_OBSERVE_HH

#include "sim/exec_record.hh"
#include "sim/task_graph.hh"
#include "sim/trace.hh"
#include "telemetry/metrics.hh"

namespace lergan {

/**
 * Fill @p tracer and @p metrics (either may be null) from @p record,
 * which TaskGraph::execute wrote for a run of @p graph. The replay's
 * buffers come from @p scratch (ExecScratch::analysis), so a lane's
 * replays allocate only when a larger graph comes along.
 */
void deriveObservers(const TaskGraph &graph, const ExecRecord &record,
                     Tracer *tracer, MetricsRegistry *metrics,
                     ExecScratch &scratch);

} // namespace lergan

#endif // LERGAN_SIM_OBSERVE_HH
