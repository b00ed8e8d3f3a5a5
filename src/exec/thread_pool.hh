/**
 * @file
 * Fixed-size worker thread pool.
 *
 * A minimal mutex/condvar work queue feeding std::jthread workers — no
 * external dependencies. The queue is for coarse tasks; bulk point
 * grids go through forEach(), which pushes only one claiming task per
 * worker through the queue and lets the workers carve the index range
 * into chunks off a shared atomic cursor — the mutex/condvar pair is
 * touched O(workers) times per grid, not O(points).
 *
 * Tasks must not let exceptions escape: the pool has nowhere to deliver
 * them (the engine layer wraps point bodies in a catch-all and records
 * failures per point instead).
 */

#ifndef LERGAN_EXEC_THREAD_POOL_HH
#define LERGAN_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lergan {

/** Workers used for a "0 = auto" thread count: one per hardware thread. */
unsigned defaultThreadCount();

/** Fixed-size pool executing submitted tasks in FIFO order. */
class ThreadPool
{
  public:
    /** Start @p threads workers (0 = defaultThreadCount()). */
    explicit ThreadPool(unsigned threads = 0);

    /** Runs every remaining task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; returns immediately. */
    void submit(std::function<void()> task);

    /**
     * Run @p fn(index, lane) for every index in [0, count) across the
     * pool and block until all of them finished.
     *
     * Chunked claiming: one claiming task per worker enters the queue;
     * each claims contiguous index chunks off a shared atomic cursor
     * until the range is exhausted. @p fn's second argument is the
     * claiming task's dense lane id in [0, min(threadCount(), count))
     * — stable for the whole call and never used by two concurrent
     * bodies, so callers can index per-worker scratch arenas with it.
     *
     * With one worker the indexes run in ascending order; with more,
     * chunks interleave arbitrarily (callers must make bodies
     * order-independent, as with submit()).
     *
     * @p fn must not throw (same contract as submitted tasks).
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t, std::size_t)> &fn);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    /** Tasks currently executing on some worker. */
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::vector<std::jthread> workers_;
};

} // namespace lergan

#endif // LERGAN_EXEC_THREAD_POOL_HH
