/**
 * @file
 * Fork-join worker lanes for point grids.
 *
 * A sweep is one grid of at most ~100 coarse points, run once per
 * call, so the lanes are plain std::jthreads started for the call and
 * joined before it returns — no persistent pool, no task queue. The
 * lanes claim contiguous index chunks off one shared atomic cursor.
 *
 * Bodies must not let exceptions escape: a lane has nowhere to deliver
 * them (the engine layer wraps point bodies in a catch-all and records
 * failures per point instead).
 */

#ifndef LERGAN_EXEC_THREAD_POOL_HH
#define LERGAN_EXEC_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace lergan {

/** Workers used for a "0 = auto" thread count: one per hardware thread. */
unsigned defaultThreadCount();

/**
 * Run @p fn(index, lane) for every index in [0, count) on
 * min(@p threads, count) fresh threads (0 = defaultThreadCount()) and
 * join them before returning.
 *
 * Each lane claims contiguous index chunks off a shared atomic cursor
 * until the range is exhausted. @p fn's second argument is the lane id,
 * dense in [0, min(threads, count)): one thread per lane, so it is
 * stable for the whole call and never used by two concurrent bodies —
 * callers can index per-worker scratch arenas with it. Bodies never run
 * on the calling thread.
 *
 * With one worker the indexes run in ascending order; with more,
 * chunks interleave arbitrarily (callers must make bodies
 * order-independent).
 *
 * @p fn must not throw.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t, std::size_t)> &fn);

} // namespace lergan

#endif // LERGAN_EXEC_THREAD_POOL_HH
