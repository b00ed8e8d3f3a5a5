/**
 * @file
 * Execution tracing for simulated task graphs.
 *
 * A Tracer holds every task's (task, start, end, lane) interval plus
 * sampled counter tracks; the result can be dumped as a text timeline
 * or exported in the Chrome trace-event format (chrome://tracing,
 * Perfetto) for visual inspection of pipelining and contention.
 *
 * The executor never writes a Tracer: deriveObservers
 * (sim/observe.hh) fills one from a run's ExecRecord after the run.
 * Events carry only their TaskId; their kind, phase and label
 * come from the graph's identity table (sim/task_graph.hh), which the
 * Tracer shares ownership of, so nothing is copied per task and the
 * tracer stays readable after the graph is gone. Labels are rendered
 * only for the text outputs. Counter tracks are interned once: a
 * sample is (track id, time, value), and trackName() maps the id
 * back.
 */

#ifndef LERGAN_SIM_TRACE_HH
#define LERGAN_SIM_TRACE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/task_graph.hh"
#include "telemetry/flight_recorder.hh"

namespace lergan {

/** One recorded task execution. Its label is Tracer::label(event). */
struct TraceEvent {
    PicoSeconds start = 0;
    PicoSeconds end = 0;
    /** Display lane: the task's first resource id (SIZE_MAX if none). */
    std::size_t lane = SIZE_MAX;
    /** Task id in the bound identity table. */
    std::uint32_t task = 0;
};

/** Interned id of a counter track (see Tracer::track). */
using TrackId = std::uint32_t;

/** One sampled value of a counter track at a sim-time instant. */
struct CounterSample {
    TrackId track = 0;
    PicoSeconds time = 0;
    double value = 0.0;
};

/** Collects task execution intervals and counter tracks of a run. */
class Tracer
{
  public:
    /**
     * Use @p tasks (TaskGraph::identity) as the identity table of later
     * recordTask() events. Rebinding a different table while events
     * exist is a bug (clear() first).
     */
    void bindTasks(std::shared_ptr<const TaskIdentity> tasks);

    /** Record one run of task @p task of the bound identity table. */
    void
    recordTask(std::uint32_t task, PicoSeconds start, PicoSeconds end,
               std::size_t lane)
    {
        events_.push_back(TraceEvent{start, end, lane, task});
    }

    TaskKind kind(const TraceEvent &event) const
    {
        return tasks_->kinds[event.task];
    }

    Phase phase(const TraceEvent &event) const
    {
        return tasks_->phases[event.task];
    }

    /** Rendered label of @p event's task. */
    std::string label(const TraceEvent &event) const
    {
        return tasks_->label(event.task);
    }

    /** Id of counter track @p name, interned on first use. */
    TrackId track(const std::string &name);

    /** Name of counter track @p id. */
    const std::string &trackName(TrackId id) const { return tracks_[id]; }

    /**
     * Record one sample of counter track @p track at sim time @p time.
     * A sample whose track and time equal those of the immediately
     * preceding sample (of any track) overwrites it, so repeated
     * updates of one track within one instant collapse to the final
     * value; samples of other tracks in between keep both.
     */
    void
    recordCounter(TrackId track, PicoSeconds time, double value)
    {
        if (!counters_.empty()) {
            CounterSample &last = counters_.back();
            if (last.track == track && last.time == time) {
                last.value = value;
                return;
            }
        }
        counters_.push_back(CounterSample{track, time, value});
    }

    /** recordCounter on track(@p name). */
    void
    recordCounter(const std::string &name, PicoSeconds time, double value)
    {
        recordCounter(track(name), time, value);
    }

    const std::vector<TraceEvent> &events() const { return events_; }

    const std::vector<CounterSample> &counterSamples() const
    {
        return counters_;
    }

    /** Make room for @p events more events and @p samples more samples. */
    void reserve(std::size_t events, std::size_t samples);

    /** Drop all recorded events, counter samples and the bound
     *  identity table (interned track ids stay valid). */
    void clear();

    /**
     * Export in the Chrome trace-event JSON format. Lanes become thread
     * ids; times are emitted in microseconds as the format expects.
     * Counter samples become "ph":"C" counter tracks, which Perfetto
     * renders as value curves alongside the task spans. Tasks with no
     * lane land on a track named "(no resource)".
     *
     * @param lane_names optional resource names indexed by lane id.
     * @param host_spans optional flight-recorder span events (one
     *     collect()'s worth) merged in as nested "ph":"X" slices under
     *     a separate "host spans" process (pid 2, one tid per worker
     *     lane, timestamps on the trace epoch) — the simulated and the
     *     host timeline stay side by side in one viewer.
     */
    void exportChromeTrace(
        std::ostream &os,
        const std::vector<std::string> &lane_names = {},
        const std::vector<SpanEvent> *host_spans = nullptr) const;

    /** Print a compact text timeline (first @p limit events). */
    void printTimeline(std::ostream &os, std::size_t limit = 50) const;

  private:
    std::vector<TraceEvent> events_;
    std::vector<CounterSample> counters_;
    std::shared_ptr<const TaskIdentity> tasks_;
    std::vector<std::string> tracks_;
};

} // namespace lergan

#endif // LERGAN_SIM_TRACE_HH
