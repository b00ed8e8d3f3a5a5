#include "exec/engine.hh"

#include <exception>
#include <mutex>

#include "exec/thread_pool.hh"
#include "telemetry/tracing.hh"

namespace lergan {

std::vector<PointStatus>
runPoints(std::size_t count, unsigned threads, const PointBodyFn &body,
          const ProgressFn &onProgress, MetricsRegistry *metrics,
          FlightRecorder *recorder, const PointTraceIdFn &traceId)
{
    std::vector<PointStatus> statuses(count);
    if (count == 0)
        return statuses;

    if (threads == 0)
        threads = defaultThreadCount();
    if (recorder)
        recorder->prepareLanes(threads);
    // Queue wait is measured from here: by the time the lanes start
    // claiming, every point is conceptually enqueued.
    const std::uint64_t enqueueNs = recorder ? traceNowNs() : 0;

    // Progress state exists only for an installed sink; the no-sink
    // epilogue is lock-free (nothing shared to touch). The done count
    // lives under the mutex because the sink's contract is serialized,
    // monotonic invocations.
    std::mutex progressMutex;
    std::size_t done = 0;

    parallelFor(count, threads, [&](std::size_t i, std::size_t lane) {
        PointStatus &st = statuses[i];
        const auto guarded = [&] {
            try {
                body(i, lane);
            } catch (const std::exception &e) {
                st.ok = false;
                st.error = e.what();
            } catch (...) {
                st.ok = false;
                st.error = "unknown exception";
            }
        };
        if (recorder) {
            TraceLaneBinding bind(recorder->lane(lane),
                                  static_cast<std::uint32_t>(lane));
            const TraceId trace =
                traceId ? traceId(i) : static_cast<TraceId>(i) + 1;
            st.queueWaitMs =
                static_cast<double>(traceNowNs() - enqueueNs) * 1e-6;
            {
                Span root(trace, "point");
                root.attr("queue_wait_ms", st.queueWaitMs,
                          /*host=*/true);
                guarded();
                if (!st.ok)
                    root.attr("failed", true);
                st.spanCount = root.spansInTrace();
            }
            // The root is recorded now, so a failure dump carries the
            // complete tree (same-thread ring read: always ordered).
            if (!st.ok)
                st.spanDump =
                    formatTraceDump(recorder->lane(lane), trace);
        } else {
            guarded();
        }
        if (onProgress) {
            std::lock_guard lock(progressMutex);
            onProgress(++done, count);
        }
    });
    if (metrics) {
        metrics->gauge("host.pool.threads")
            .set(static_cast<double>(threads));
    }
    return statuses;
}

} // namespace lergan
