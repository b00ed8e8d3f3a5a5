/**
 * @file
 * A fixed CPU probe that tracks how fast the host runs right now.
 *
 * On a shared host the CPU speed drifts by tens of percent from one
 * minute to the next, and every host time the benchmark reports drifts
 * with it. The probe does the same work on every call, in code of the
 * benchmark's own that no change to the simulator touches: an event heap
 * over a table of state, and list scheduling of fixed random task graphs
 * with resources (the shape of the simulator's event kernel). Probes run
 * in bursts between the timed steps of a run (passes, set-ups); the
 * bursts on either side of a step say how much slower or faster than the
 * reference the host ran during that step.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    /** Probe time on the reference host (4-vCPU Xeon, RelWithDebInfo). */
    static constexpr double kReferenceSeconds = 0.0176;

    HostSpeed();

    /** Run the probe once; returns its checksum, the same on every call. */
    std::uint64_t probe();

    /**
     * Probe until all probes so far took @p seconds in total (at least
     * once), and record the mean time of this burst.
     */
    void burst(double seconds);

    /**
     * Slowdown of a step timed after @p burstsBefore bursts: the mean of
     * the burst just before it and the burst just after it (either one
     * alone at the ends of the run) ÷ kReferenceSeconds. 1.2 is 20%
     * slower than the reference host; 1 when there was no burst.
     */
    double slowdownAt(std::size_t burstsBefore) const;

    /** Mean probe time ÷ kReferenceSeconds over the whole run. */
    double meanSlowdown() const;

    std::size_t probes() const { return times_.size(); }
    std::size_t bursts() const { return bursts_.size(); }
    double seconds() const { return seconds_; }

  private:
    /**
     * A random task graph: CSR successors, a resource, a duration and
     * the name of the energy statistic each task adds to.
     */
    struct Graph {
        std::vector<std::uint32_t> offsets, successors, resources, indegree;
        std::vector<std::uint64_t> durations;
        std::vector<std::string> keys;
    };

    static Graph makeGraph(std::uint32_t tasks, std::uint64_t seed);
    static std::uint64_t schedule(const Graph &graph);
    static std::uint64_t churnHeap();

    std::vector<Graph> graphs_;
    /** Seconds of each probe so far. */
    std::vector<double> times_;
    /** Mean probe seconds of each burst so far. */
    std::vector<double> bursts_;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
