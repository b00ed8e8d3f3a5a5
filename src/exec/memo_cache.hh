/**
 * @file
 * Generic once-per-key memoization cache for expensive pure builds.
 *
 * One concurrency story for every pure, structurally keyed artifact
 * (compiled GAN mappings, per-iteration task-DAG templates):
 *
 *  - get() may be called concurrently; two threads racing on the same
 *    key build exactly once — the loser waits on the winner's future.
 *  - Hit/miss counters are exact (a waiting racer counts as a hit),
 *    which the tests use to assert build-once behavior.
 *  - If the build throws, every waiting caller rethrows and the entry
 *    is dropped, so a later request can retry.
 *
 * One mutex guards one map from key to shared future. A sweep point
 * makes two lookups (compiled model, template) against builds that
 * take tens of microseconds to milliseconds, so the lock is held only
 * for a map probe and is never the bottleneck. A hit copies the future
 * under the lock and waits on it outside; a miss parks its promise's
 * future in the map and builds outside the lock, so different keys
 * build in parallel.
 *
 * Values are handed out as shared immutable pointers: a cached value
 * may be used concurrently from many worker threads, so Value must be
 * safe to read (not mutate) in parallel.
 */

#ifndef LERGAN_EXEC_MEMO_CACHE_HH
#define LERGAN_EXEC_MEMO_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lergan {

/** Keyed build-once store of shared immutable values. */
template <typename Value>
class MemoCache
{
  public:
    using BuildFn = std::function<std::shared_ptr<const Value>()>;

    /**
     * Return the value of @p key, invoking @p build on the first
     * request. Concurrent first requests build once; the other callers
     * wait until the result is ready.
     *
     * @param was_hit when non-null, set to whether this request was
     *        served from the cache (racers waiting on an in-flight
     *        build count as hits, matching the counters).
     */
    std::shared_ptr<const Value>
    get(const std::string &key, const BuildFn &build,
        bool *was_hit = nullptr)
    {
        std::promise<std::shared_ptr<const Value>> promise;
        {
            std::unique_lock lock(mutex_);
            if (auto it = entries_.find(key); it != entries_.end()) {
                ++hits_;
                if (was_hit)
                    *was_hit = true;
                Future future = it->second;
                lock.unlock();
                return future.get(); // rethrows a racing build's failure
            }
            ++misses_;
            if (was_hit)
                *was_hit = false;
            entries_.emplace(key, promise.get_future().share());
        }

        std::shared_ptr<const Value> value;
        try {
            value = build();
        } catch (...) {
            // Drop the entry before waking the waiters, so none of
            // them (nor a later request) can find the failed future.
            {
                std::lock_guard lock(mutex_);
                entries_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(value);
        return value;
    }

    /** Requests served from the cache (exact). */
    std::uint64_t
    hits() const
    {
        std::lock_guard lock(mutex_);
        return hits_;
    }

    /** Requests that had to build (exact). */
    std::uint64_t
    misses() const
    {
        std::lock_guard lock(mutex_);
        return misses_;
    }

    /** Distinct values currently held (built + building). */
    std::size_t
    size() const
    {
        std::lock_guard lock(mutex_);
        return entries_.size();
    }

    /** Drop every entry and reset the counters. */
    void
    clear()
    {
        std::lock_guard lock(mutex_);
        entries_.clear();
        hits_ = 0;
        misses_ = 0;
    }

  private:
    using Future = std::shared_future<std::shared_ptr<const Value>>;

    mutable std::mutex mutex_;
    std::map<std::string, Future> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace lergan

#endif // LERGAN_EXEC_MEMO_CACHE_HH
