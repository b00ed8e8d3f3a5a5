#include "hostspeed.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>

#include "measure.hh"

namespace perfbench {

namespace {

/** xorshift64: the probe's inputs are the same on every host. */
struct Random {
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

using Event = std::pair<std::uint64_t, std::uint32_t>;
using EventHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<>>;

constexpr std::uint32_t kGraphs = 4;
constexpr std::uint32_t kTasksPerGraph = 10000;
constexpr std::uint32_t kResources = 512;
/** Energy statistic names, longer than a short string: each task's key
 *  is a heap string of its own, as in the simulator's tasks. */
constexpr std::uint32_t kKeys = 16;
/**
 * Copies of the graphs, used in turn: a probe finds its graphs out of
 * cache, as a sweep point finds its template, so it slows down with the
 * host's memory system as the passes do.
 */
constexpr std::uint32_t kCopies = 16;

} // namespace

HostSpeed::HostSpeed()
{
    for (std::uint32_t copy = 0; copy < kCopies; ++copy) {
        for (std::uint32_t g = 0; g < kGraphs; ++g)
            graphs_.push_back(makeGraph(kTasksPerGraph, 1234 + g));
    }
}

HostSpeed::Graph
HostSpeed::makeGraph(std::uint32_t tasks, std::uint64_t seed)
{
    Random random{seed};
    Graph graph;
    graph.offsets.push_back(0);
    graph.indegree.assign(tasks, 0);
    for (std::uint32_t t = 0; t < tasks; ++t) {
        graph.durations.push_back(100 + random.next() % 5000);
        graph.resources.push_back(
            static_cast<std::uint32_t>(random.next() % kResources));
        graph.keys.push_back("energy.probe.statistic." +
                             std::to_string(random.next() % kKeys));
        // 1-3 successors among the next 64 tasks: a layered DAG.
        const std::uint32_t later = tasks - t - 1;
        const std::uint64_t fanout = later ? 1 + random.next() % 3 : 0;
        for (std::uint64_t s = 0; s < fanout; ++s) {
            const auto next = static_cast<std::uint32_t>(
                t + 1 + random.next() % std::min<std::uint32_t>(64, later));
            graph.successors.push_back(next);
            ++graph.indegree[next];
        }
        graph.offsets.push_back(
            static_cast<std::uint32_t>(graph.successors.size()));
    }
    return graph;
}

std::uint64_t
HostSpeed::schedule(const Graph &graph)
{
    const std::size_t tasks = graph.durations.size();
    std::vector<std::uint32_t> waiting = graph.indegree;
    std::vector<std::uint64_t> readyAt(tasks, 0), freeAt(kResources, 0);
    std::map<std::string, double> energy;
    EventHeap ready;
    for (std::uint32_t t = 0; t < tasks; ++t) {
        if (waiting[t] == 0)
            ready.push({0, t});
    }
    std::uint64_t makespan = 0;
    while (!ready.empty()) {
        const auto [at, t] = ready.top();
        ready.pop();
        const std::uint64_t end =
            std::max(at, freeAt[graph.resources[t]]) + graph.durations[t];
        freeAt[graph.resources[t]] = end;
        makespan = std::max(makespan, end);
        energy[graph.keys[t]] += double(graph.durations[t]);
        for (std::uint32_t e = graph.offsets[t]; e < graph.offsets[t + 1];
             ++e) {
            const std::uint32_t next = graph.successors[e];
            readyAt[next] = std::max(readyAt[next], end);
            if (--waiting[next] == 0)
                ready.push({readyAt[next], next});
        }
    }
    return makespan + energy.size();
}

std::uint64_t
HostSpeed::churnHeap()
{
    Random random{88172645463325252ull};
    std::vector<std::uint32_t> state(1 << 16);
    EventHeap events;
    for (std::uint32_t id = 0; id < 1024; ++id)
        events.push({random.next() & 1023, id});
    for (int step = 0; step < 60000; ++step) {
        const auto [at, id] = events.top();
        events.pop();
        std::uint32_t &cell = state[(id * 2654435761u + at) & 0xffff];
        cell += static_cast<std::uint32_t>(at);
        events.push({at + 1 + (random.next() & 255) + (cell & 15), id});
    }
    return events.top().first;
}

std::uint64_t
HostSpeed::probe()
{
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t checksum = churnHeap();
    const std::size_t copy = times_.size() % kCopies;
    for (std::uint32_t g = 0; g < kGraphs; ++g)
        checksum = checksum * 31 + schedule(graphs_[copy * kGraphs + g]);
    times_.push_back(secondsSince(start));
    seconds_ += times_.back();
    return checksum;
}

void
HostSpeed::burst(double seconds)
{
    const std::size_t first = times_.size();
    do
        probe();
    while (seconds_ < seconds);
    double sum = 0.0;
    for (std::size_t i = first; i < times_.size(); ++i)
        sum += times_[i];
    bursts_.push_back(sum / double(times_.size() - first));
}

double
HostSpeed::slowdownAt(std::size_t burstsBefore) const
{
    if (bursts_.empty())
        return 1.0;
    const std::size_t after = std::min(burstsBefore, bursts_.size() - 1);
    const std::size_t before = burstsBefore ? burstsBefore - 1 : after;
    return (bursts_[before] + bursts_[after]) / 2.0 / kReferenceSeconds;
}

double
HostSpeed::meanSlowdown() const
{
    return times_.empty()
               ? 1.0
               : seconds_ / double(times_.size()) / kReferenceSeconds;
}

} // namespace perfbench
