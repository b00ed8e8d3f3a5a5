/**
 * @file
 * Causal tracing: RAII span scopes over the flight recorder.
 *
 * A Span marks one stage of one traced unit of work (a sweep point, a
 * session run): it captures begin/end on the shared trace clock, links
 * to its parent, carries a handful of key/value attributes, and lands
 * in the calling thread's flight-recorder ring when it closes. The
 * whole apparatus is thread-local: bindTraceLane() points a thread at
 * its ring, a root Span opens a trace, nested Spans attach to the
 * current one. No locks anywhere — a span's only shared-memory effect
 * is the ring push at destruction.
 *
 * Cost discipline: an *unbound* thread's Span is inert — construction
 * is one thread-local load and a branch, no clock read, no store — so
 * instrumented hot paths (the sweep point body, the Monte Carlo trial
 * loop) cost nothing measurable until a recorder is attached
 * (`--trace-spans`, ExperimentSweep::withTracing). A bound span costs
 * two clock reads and one ring push. The fig19 tracing A/B guard pins
 * the on-cost.
 *
 * Determinism: span ids count up from 1 within each trace, in program
 * order on the owning thread, so a point's span sequence is a pure
 * function of its code path — identical at any worker count.
 *
 * Clock: all span timestamps derive from one process-wide steady-clock
 * epoch, captured on first use — see traceNowNs(). Span nesting is asserted monotonic in debug
 * builds: closing a span that is not the innermost open one aborts.
 */

#ifndef LERGAN_TELEMETRY_TRACING_HH
#define LERGAN_TELEMETRY_TRACING_HH

#include <cassert>
#include <cstdint>
#include <string_view>

#include "telemetry/flight_recorder.hh"

namespace lergan {

/**
 * Nanoseconds since the process-wide trace epoch — one steady-clock
 * origin, captured once at first use (i.e. session start). The
 * library's only host clock: spans, queue waits and per-point host
 * times all read it, so they never disagree on where zero is.
 */
std::uint64_t traceNowNs();

class Span;

namespace tracing_detail {

/** Per-thread tracing state (the bound ring and the open trace). */
struct ThreadState {
    FlightRing *ring = nullptr;
    std::uint32_t lane = SpanEvent::kMainLane;
    Span *current = nullptr;
    TraceId trace = 0;
    SpanId nextSpan = 1;
};

ThreadState &state();

} // namespace tracing_detail

/**
 * RAII: bind the calling thread to @p ring (its flight-recorder lane)
 * for the binding's lifetime; restores the previous binding after.
 * Spans constructed while no binding is active are inert.
 */
class TraceLaneBinding
{
  public:
    TraceLaneBinding(FlightRing &ring, std::uint32_t lane)
    {
        auto &ts = tracing_detail::state();
        prevRing_ = ts.ring;
        prevLane_ = ts.lane;
        ts.ring = &ring;
        ts.lane = lane;
    }

    ~TraceLaneBinding()
    {
        auto &ts = tracing_detail::state();
        ts.ring = prevRing_;
        ts.lane = prevLane_;
    }

    TraceLaneBinding(const TraceLaneBinding &) = delete;
    TraceLaneBinding &operator=(const TraceLaneBinding &) = delete;

  private:
    FlightRing *prevRing_;
    std::uint32_t prevLane_;
};

/** Convenience: bind to @p recorder's main-thread ring. */
class MainLaneBinding : public TraceLaneBinding
{
  public:
    explicit MainLaneBinding(FlightRecorder &recorder)
        : TraceLaneBinding(recorder.mainRing(), SpanEvent::kMainLane)
    {
    }
};

/**
 * One causal span. Stack-only, non-copyable.
 *
 * The two-argument constructor opens a new trace (a root span); the
 * one-argument constructor opens a child of the thread's current span.
 * Attributes set through attr() are carried in the completed event
 * (first SpanEvent::kMaxAttrs stick; the rest are dropped). The event
 * is recorded at destruction, so only *completed* spans ever reach the
 * recorder — a span open when its lane's ring is read simply is not
 * there yet (the failure dump notes this).
 */
class Span
{
  public:
    /** Root span: open trace @p trace on the bound ring. */
    Span(TraceId trace, const char *name) : Span(name, trace, true) {}

    /** Child span of the thread's current span (same trace). */
    explicit Span(const char *name) : Span(name, 0, false) {}

    ~Span()
    {
        if (!active_)
            return;
        auto &ts = tracing_detail::state();
        // Monotonic nesting: the closing span must be the innermost
        // open one. A violation means scopes overlap instead of nest —
        // a tracing bug, caught in debug builds.
        assert(ts.current == this && "span scopes must nest");
        event_.endNs = traceNowNs();
        assert(event_.endNs >= event_.beginNs);
        ts.ring->push(event_);
        ts.current = parent_;
        if (root_) {
            ts.trace = prevTrace_;
            ts.nextSpan = prevNextSpan_;
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** False when the thread had no ring bound at construction. */
    bool active() const { return active_; }

    SpanId id() const { return event_.span; }
    TraceId trace() const { return event_.trace; }

    /** @name Attributes (no-ops on an inert span) */
    ///@{
    Span &
    attr(const char *key, bool value)
    {
        SpanAttr *slot = nextAttr(key, false);
        if (slot) {
            slot->kind = SpanAttr::Kind::Bool;
            slot->i = value ? 1 : 0;
        }
        return *this;
    }

    Span &
    attr(const char *key, std::int64_t value)
    {
        SpanAttr *slot = nextAttr(key, false);
        if (slot) {
            slot->kind = SpanAttr::Kind::Int;
            slot->i = value;
        }
        return *this;
    }

    Span &
    attr(const char *key, std::string_view value)
    {
        SpanAttr *slot = nextAttr(key, false);
        if (slot)
            slot->setText(value);
        return *this;
    }

    /**
     * Floating-point attribute. @p host marks it a wall-clock fact
     * (queue wait, milliseconds of anything): host attributes land in
     * the NDJSON line's strippable "host" object instead of "attrs".
     */
    Span &
    attr(const char *key, double value, bool host = false)
    {
        SpanAttr *slot = nextAttr(key, host);
        if (slot) {
            slot->kind = SpanAttr::Kind::Float;
            slot->f = value;
        }
        return *this;
    }
    ///@}

    /**
     * Spans opened so far in this span's trace (root included) — valid
     * while the span is alive; the engine reads it off the root after
     * the point body returns to report a per-point span count.
     */
    std::uint64_t
    spansInTrace() const
    {
        return active_ ? tracing_detail::state().nextSpan - 1 : 0;
    }

  private:
    Span(const char *name, TraceId trace, bool root) : root_(root)
    {
        auto &ts = tracing_detail::state();
        if (!ts.ring || (!root && !ts.current))
            return; // unbound thread (or orphan child): inert
        active_ = true;
        parent_ = ts.current;
        if (root) {
            prevTrace_ = ts.trace;
            prevNextSpan_ = ts.nextSpan;
            ts.trace = trace;
            ts.nextSpan = 1;
        }
        event_.trace = ts.trace;
        event_.span = ts.nextSpan++;
        event_.parent = parent_ && !root ? parent_->event_.span : 0;
        event_.name = name;
        event_.lane = ts.lane;
        event_.beginNs = traceNowNs();
        ts.current = this;
    }

    SpanAttr *
    nextAttr(const char *key, bool host)
    {
        if (!active_ || event_.attrCount >= SpanEvent::kMaxAttrs)
            return nullptr;
        SpanAttr &slot = event_.attrs[event_.attrCount++];
        slot.key = key;
        slot.host = host;
        return &slot;
    }

    bool active_ = false;
    bool root_;
    Span *parent_ = nullptr;
    TraceId prevTrace_ = 0;
    SpanId prevNextSpan_ = 1;
    SpanEvent event_;
};

/** @name Annotate the thread's current span (no-ops when none open) */
///@{
void annotate(const char *key, bool value);
void annotate(const char *key, std::int64_t value);
void annotate(const char *key, std::string_view value);
void annotate(const char *key, double value, bool host = false);
///@}

/** The thread's innermost open span (null when none / unbound). */
Span *currentSpan();

} // namespace lergan

#endif // LERGAN_TELEMETRY_TRACING_HH
