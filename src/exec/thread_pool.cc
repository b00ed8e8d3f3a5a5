#include "exec/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace lergan {

unsigned
defaultThreadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
parallelFor(std::size_t count, unsigned threads,
            const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (threads == 0)
        threads = defaultThreadCount();
    const std::size_t lanes = std::min<std::size_t>(threads, count);
    // ~8 chunks per lane: coarse enough that the claim cursor is cold,
    // fine enough that uneven point costs still balance across lanes.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (lanes * 8));
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> workers;
    workers.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        workers.emplace_back([&, lane] {
            for (;;) {
                const std::size_t begin =
                    next.fetch_add(chunk, std::memory_order_relaxed);
                if (begin >= count)
                    return;
                const std::size_t end = std::min(begin + chunk, count);
                for (std::size_t i = begin; i < end; ++i)
                    fn(i, lane);
            }
        });
    }
    // The jthreads join as `workers` goes out of scope.
}

} // namespace lergan
