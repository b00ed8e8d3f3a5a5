/**
 * @file
 * Parallel point-grid execution engine.
 *
 * Runs N independent point bodies on fork-join worker lanes with
 * slot-indexed (therefore completion-order-independent) results,
 * per-point error capture and serialized progress reporting. The experiment-sweep
 * runner and any future batch driver build on this layer; the engine
 * itself knows nothing about accelerators or sweeps.
 */

#ifndef LERGAN_EXEC_ENGINE_HH
#define LERGAN_EXEC_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"

namespace lergan {

/** Progress hook: called as (points done, points total). */
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/** Options of one engine-backed run (ExperimentSweep::run). */
struct RunOptions {
    /** Worker threads; 1 runs in submission order, 0 = one per
     *  hardware thread. */
    int threads = 1;
    /** Training iterations to simulate per point. */
    int iterations = 1;
    /**
     * Called after each point completes. Invocations are serialized
     * (never concurrent), but arrive in completion order: only the
     * counts are monotonic, not the identity of the finished point.
     */
    ProgressFn onProgress;
    /**
     * Collect per-point host telemetry (wall time, compile-cache hit)
     * into each result. Off by default: the extra fields change the
     * JSON/CSV exports, and per-point wall times are wall-clock facts
     * that must never enter a determinism golden.
     */
    bool pointTelemetry = false;
};

/** Execution status of one point. */
struct PointStatus {
    bool ok = true;
    /** Exception message when !ok. */
    std::string error;
    /**
     * Causal history of a failed point: the span tree resident in the
     * executing lane's flight-recorder ring at failure time, rendered
     * as text. Empty on success or when no recorder was attached.
     */
    std::string spanDump;
    /** Spans recorded for this point (0 when untraced). */
    std::uint64_t spanCount = 0;
    /**
     * Milliseconds between runPoints() entry and this point being
     * claimed by a lane — a wall-clock fact about host scheduling,
     * never part of determinism goldens. -1 when untraced.
     */
    double queueWaitMs = -1.0;
};

/** Point body: called as (point index, worker lane). The lane is a
 *  dense id in [0, min(workers, points)), stable for the body's whole
 *  run and never shared by two concurrent bodies — index per-worker
 *  scratch arenas with it. */
using PointBodyFn = std::function<void(std::size_t, std::size_t)>;

/**
 * Maps an engine point index to the TraceId its spans record under.
 * Defaults to i + 1 (trace 0 is reserved). A caller running a
 * *subset* of a larger grid (the bound-pruning batches) passes the
 * mapping back to original grid indices so a point keeps one trace id
 * across every batch it could appear in.
 */
using PointTraceIdFn = std::function<TraceId(std::size_t)>;

/**
 * Execute @p body(i, lane) for every i in [0, count) on @p threads
 * workers (0 = defaultThreadCount()) and block until all points
 * finished. The lanes are started for this call and joined before it
 * returns (parallelFor); they claim points in chunks off one atomic
 * cursor, so nothing is locked per point.
 *
 * A body that throws marks its own PointStatus failed with the
 * exception message; the other points are unaffected. Statuses are
 * indexed by point, so the result is deterministic regardless of the
 * order in which workers finish.
 *
 * Progress accounting exists only while @p onProgress is installed;
 * without a sink the per-point epilogue takes no lock and touches no
 * shared counter.
 *
 * When @p metrics is given, the requested worker count (0 resolved to
 * defaultThreadCount()) is recorded after the join as the
 * "host.pool.threads" gauge — a fact about the host, never part of
 * goldens.
 *
 * When @p recorder is given, every point runs under a root "point"
 * span on its lane's flight-recorder ring: the lane is bound before
 * the body runs (so the body's own spans nest under the root), the
 * point's queue wait is attached as a host attribute, a failed point
 * gets its resident span tree dumped into PointStatus::spanDump, and
 * the per-point span count / queue wait land in the status. Trace ids
 * come from @p traceId (default: point index + 1).
 */
std::vector<PointStatus> runPoints(std::size_t count, unsigned threads,
                                   const PointBodyFn &body,
                                   const ProgressFn &onProgress = {},
                                   MetricsRegistry *metrics = nullptr,
                                   FlightRecorder *recorder = nullptr,
                                   const PointTraceIdFn &traceId = {});

} // namespace lergan

#endif // LERGAN_EXEC_ENGINE_HH
