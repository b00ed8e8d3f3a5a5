#include "exec/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lergan {

unsigned
defaultThreadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    // jthread joins on destruction; workers exit once the queue drains.
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock lock(mutex_);
    allIdle_.wait(lock,
                  [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::forEach(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (count == 0)
        return;
    const std::size_t lanes = std::min(workers_.size(), count);
    // ~8 chunks per lane: coarse enough that the claim cursor is cold,
    // fine enough that uneven point costs still balance across lanes.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (lanes * 8));
    // Shared claiming state outlives this frame only through the
    // submitted tasks; shared_ptr keeps it alive until the last one
    // finishes (drain() below also guarantees that before we return,
    // but the destructor-drains-queue path needs the ownership too).
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto lane = std::make_shared<std::atomic<std::size_t>>(0);
    for (std::size_t t = 0; t < lanes; ++t) {
        submit([count, chunk, next, lane, &fn] {
            const std::size_t self =
                lane->fetch_add(1, std::memory_order_relaxed);
            for (;;) {
                const std::size_t begin =
                    next->fetch_add(chunk, std::memory_order_relaxed);
                if (begin >= count)
                    return;
                const std::size_t end = std::min(begin + chunk, count);
                for (std::size_t i = begin; i < end; ++i)
                    fn(i, self);
            }
        });
    }
    drain();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock lock(mutex_);
    for (;;) {
        workReady_.wait(
            lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping and nothing left to run
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++running_;
        lock.unlock();
        task();
        lock.lock();
        --running_;
        if (queue_.empty() && running_ == 0)
            allIdle_.notify_all();
    }
}

} // namespace lergan
