/**
 * @file
 * Flight recorder: per-lane, cache-line-padded, lock-free ring buffers
 * of completed span events (telemetry/tracing.hh) — the always-on,
 * bounded-memory causal record of what recently happened to every
 * sweep point.
 *
 * Each worker lane owns one ring (plus one for the main thread), so a
 * recording thread never touches another thread's cache line: a push is
 * a plain struct store into the writer's own pre-sized slot array plus
 * one relaxed/release head increment — no lock, no allocation, no
 * contention on a path taken once per span. When a ring fills, the
 * oldest events are overwritten: the recorder keeps the newest N spans
 * per lane, which is exactly what a post-mortem wants.
 *
 * Readers (the NDJSON exporter, the anomaly report, the failed-point
 * dump) run quiescent — after the sweep, or on the owning lane itself —
 * so snapshots never observe a torn event. The one concurrent-read
 * case, a lane dumping its own ring from inside a catch handler, is
 * same-thread and therefore ordered.
 *
 * Determinism contract: span/trace ids and the deterministic attributes
 * are pure functions of the point grid, so a sorted NDJSON export with
 * host times stripped is byte-identical at any worker count (the
 * fig19_spans golden pins this). Wall-clock fields (begin/dur, queue
 * wait, lane) live in each line's trailing "host" object, which the
 * golden harness strips — the same split the metrics goldens use for
 * the "host." prefix.
 */

#ifndef LERGAN_TELEMETRY_FLIGHT_RECORDER_HH
#define LERGAN_TELEMETRY_FLIGHT_RECORDER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lergan {

/** Identifies one traced unit of work (one sweep point, one run). */
using TraceId = std::uint64_t;
/** Identifies one span within its trace (1 = the root). */
using SpanId = std::uint64_t;

/**
 * One key/value attribute of a span. Plain data: keys are static
 * string literals, text values are copied into a fixed buffer
 * (truncated past kTextCapacity - 1 characters), so an attribute never
 * owns memory and never dangles.
 *
 * Attributes marked `host` are wall-clock facts about the measuring
 * machine (queue waits, durations); the NDJSON exporter files them in
 * the strippable "host" object so they stay out of determinism goldens.
 */
struct SpanAttr {
    enum class Kind : std::uint8_t { None, Bool, Int, Float, Text };

    static constexpr std::size_t kTextCapacity = 16;

    const char *key = nullptr;
    Kind kind = Kind::None;
    bool host = false;
    std::int64_t i = 0;
    double f = 0.0;
    char text[kTextCapacity] = {};

    void
    setText(std::string_view value)
    {
        kind = Kind::Text;
        const std::size_t n =
            value.size() < kTextCapacity - 1 ? value.size()
                                             : kTextCapacity - 1;
        std::memcpy(text, value.data(), n);
        text[n] = '\0';
    }
};

/** One completed span, as stored in a ring slot. Plain data. */
struct SpanEvent {
    static constexpr int kMaxAttrs = 4;
    /** Lane value of main-thread (non-pool) spans. */
    static constexpr std::uint32_t kMainLane = UINT32_MAX;

    TraceId trace = 0;
    SpanId span = 0;
    /** Parent span id within the same trace (0 = root). */
    SpanId parent = 0;
    /** Static string literal. */
    const char *name = "";
    /** Nanoseconds since the shared trace epoch (traceNowNs()). */
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t lane = kMainLane;
    std::uint32_t attrCount = 0;
    std::array<SpanAttr, kMaxAttrs> attrs{};

    double
    durationMs() const
    {
        return static_cast<double>(endNs - beginNs) * 1e-6;
    }
};

/**
 * Single-writer ring of the newest `capacity` span events.
 *
 * The owning lane is the only writer; push() is a slot store plus a
 * release head increment, so a same-thread or quiescent reader always
 * sees fully written events. Capacity is rounded up to a power of two
 * and pre-allocated — steady-state recording allocates nothing.
 */
class FlightRing
{
  public:
    explicit FlightRing(std::size_t capacity);

    /** Record @p event, overwriting the oldest when full. */
    void
    push(const SpanEvent &event)
    {
        const std::uint64_t head =
            head_.load(std::memory_order_relaxed);
        slots_[head & mask_] = event;
        head_.store(head + 1, std::memory_order_release);
    }

    /** Resident events, oldest to newest (quiescent/same-thread). */
    std::vector<SpanEvent> snapshot() const;

    /** Total events ever pushed (including overwritten ones). */
    std::uint64_t
    recorded() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Events lost to overwrite-oldest so far. */
    std::uint64_t
    dropped() const
    {
        const std::uint64_t total = recorded();
        return total > slots_.size() ? total - slots_.size() : 0;
    }

    std::size_t capacity() const { return slots_.size(); }

  private:
    std::vector<SpanEvent> slots_;
    std::uint64_t mask_;
    alignas(64) std::atomic<std::uint64_t> head_{0};
};

/**
 * The per-lane ring set one sweep (or session) records into.
 *
 * Lane rings are heap-allocated individually, so two lanes never share
 * a cache line; prepareLanes() grows the set once per pool width and
 * every later run reuses the same rings (no steady-state allocation).
 * The main thread (session runs, exporters) records into its own
 * dedicated ring.
 */
class FlightRecorder
{
  public:
    /** Default events kept per lane (~1 MiB/lane of post-mortem). */
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit FlightRecorder(std::size_t lane_capacity = kDefaultCapacity);

    /**
     * Ensure rings for lanes [0, @p lanes) exist. Called by the engine
     * before a run; must not race recording (the engine calls it before
     * the lanes start claiming).
     */
    void prepareLanes(std::size_t lanes);

    /** Ring of worker lane @p lane (prepareLanes'd first). */
    FlightRing &lane(std::size_t lane);

    /** The main thread's (non-pool) ring. */
    FlightRing &mainRing() { return *main_; }

    std::size_t laneCount() const { return lanes_.size(); }
    std::size_t laneCapacity() const { return laneCapacity_; }

    /**
     * All resident events across every ring, sorted by (trace, span) —
     * the deterministic order the NDJSON exporter relies on. Quiescent
     * readers only.
     */
    std::vector<SpanEvent> collect() const;

    /** Resident events of one trace, sorted by span id. */
    std::vector<SpanEvent> collectTrace(TraceId trace) const;

    /** Total events lost to overwrite-oldest across all rings. */
    std::uint64_t dropped() const;

    /** Total events ever recorded across all rings. */
    std::uint64_t recorded() const;

    /**
     * Allocate a trace id for a non-sweep unit of work (a session run,
     * a bench phase). Sweep points use their deterministic point index
     * + 1; allocated ids start at 2^32 so the two ranges never collide
     * in a shared recorder.
     */
    TraceId
    allocateTraceId()
    {
        return nextTraceId_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    std::size_t laneCapacity_;
    std::vector<std::unique_ptr<FlightRing>> lanes_;
    std::unique_ptr<FlightRing> main_;
    std::atomic<TraceId> nextTraceId_{TraceId{1} << 32};
};

/**
 * Write @p events (already in collect() order) as NDJSON, one span per
 * line with a fixed field order:
 *
 *   {"trace":1,"span":2,"parent":1,"name":"compile",
 *    "attrs":{"cache_hit":false},
 *    "host":{"lane":0,"begin_us":12.345,"dur_us":6.789,...}}
 *
 * Deterministic attributes land in "attrs" (omitted when empty); every
 * wall-clock fact — lane, begin/duration, host-marked attributes —
 * lands in the trailing "host" object, which @p include_host omits
 * entirely (the golden harness instead strips it with a line filter,
 * keeping the product output complete).
 */
void writeSpanNdjson(std::ostream &os,
                     const std::vector<SpanEvent> &events,
                     bool include_host = true);

/**
 * Print the span tree of one trace as an indented text timeline:
 * name, duration, attributes — the human-readable form the anomaly
 * report and the failed-point dump embed. @p events must belong to a
 * single trace, sorted by span id (collectTrace() order). Spans whose
 * parent is absent (evicted, or still open) print at the top level
 * with a note.
 */
void printSpanTree(std::ostream &os, const std::vector<SpanEvent> &events);

/** Accumulated self time of every span sharing one name. */
struct SpanSelfTime {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

/**
 * Self time per span name over @p events: each span's duration minus
 * the durations of its resident direct children. Several runs may
 * share one recorder and reuse trace and span ids (every sweep numbers
 * its points' traces from 1), so a child's parent is the span on the
 * same lane, in the same trace, with the child's parent id, whose
 * interval contains the child's. A child whose parent is not resident
 * subtracts from nothing.
 */
std::map<std::string, SpanSelfTime>
spanSelfTimes(const std::vector<SpanEvent> &events);

/**
 * Print spanSelfTimes(@p events) as a "name  self ms  calls" table,
 * one row per span name in name order — the bench --self-profile
 * report of where the simulator's own host time went.
 */
void printSpanSelfTimes(std::ostream &os,
                        const std::vector<SpanEvent> &events);

/**
 * One-stop failure dump: the span tree of @p trace as currently
 * resident in @p ring, rendered to a string (empty when the trace left
 * no events). Safe to call from the owning lane itself — same-thread
 * reads are ordered.
 */
std::string formatTraceDump(const FlightRing &ring, TraceId trace);

} // namespace lergan

#endif // LERGAN_TELEMETRY_FLIGHT_RECORDER_HH
