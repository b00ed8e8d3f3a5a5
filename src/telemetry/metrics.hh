/**
 * @file
 * Hierarchical metrics registry: counters, gauges and histograms under
 * dot-separated names ("sim.queue.depth", "cache.model.hits").
 *
 * Recording is cheap, thread-safe and contention-free: counters and
 * histograms are sharded into cache-line-padded per-thread slots (each
 * recording thread owns one slot via a round-robin thread→shard
 * assignment), so concurrent workers never write the same cache line —
 * no lock and no false sharing on the hot path (the registry mutex
 * guards only instrument *creation*). Readers merge the shards: a
 * counter's value is the sum of its slots, a histogram's buckets,
 * count and sum add across slots and min/max reduce across them, so a
 * MetricsSnapshot — an ordered, plain-data copy with delta semantics
 * and JSON / Prometheus-text / CSV exporters — is byte-identical to
 * what an unsharded registry would have produced.
 *
 * Determinism contract: counters and histograms accumulate integers,
 * so their totals are identical regardless of how many worker threads
 * interleaved the recording — a sweep's sim-time metrics snapshot is
 * byte-identical at 1 and N workers (the golden tests pin this).
 * Host facts (the pool's worker count) live under the reserved
 * "host." prefix and are excluded from golden comparisons;
 * see MetricsSnapshot::withoutPrefix and docs/INTERNALS.md.
 */

#ifndef LERGAN_TELEMETRY_METRICS_HH
#define LERGAN_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace lergan {

namespace telemetry_detail {

/** Cache-line size the shard slots pad to (false-sharing avoidance). */
inline constexpr std::size_t kCacheLine = 64;

/** Shards per instrument: enough that the worker pools in use (the
 *  sweep engine rarely runs wider than the hardware) spread across
 *  distinct lines; threads beyond this share slots round-robin, which
 *  costs contention but never correctness. */
inline constexpr std::size_t kShards = 8;

/** Round-robin thread→shard assignment (definition in metrics.cc). */
std::size_t assignShard();

/** Stable shard of the calling thread, in [0, kShards). */
inline std::size_t
shardIndex()
{
    thread_local const std::size_t shard = assignShard();
    return shard;
}

} // namespace telemetry_detail

/**
 * Monotonic integer count (flits, transitions, tasks).
 *
 * Sharded: add() touches only the calling thread's padded slot;
 * value() sums the slots (exact — integer adds commute).
 */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        shards_[telemetry_detail::shardIndex()].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Shard &shard : shards_)
            total += shard.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(telemetry_detail::kCacheLine) Shard {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Shard, telemetry_detail::kShards> shards_;
};

/**
 * Last-written scalar (cache sizes, configuration facts, host times).
 *
 * Not sharded — "last write wins" has no per-thread merge — but padded
 * so a hot gauge never false-shares with a neighboring instrument.
 */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    alignas(telemetry_detail::kCacheLine) std::atomic<double> value_{0.0};
};

struct HistogramBins;

/**
 * Log2-bucketed distribution of unsigned samples (queue depths, waits
 * in picoseconds, makespans).
 *
 * Bucket i counts samples whose bit width is i: bucket 0 holds zeros,
 * bucket i >= 1 holds values in [2^(i-1), 2^i - 1]. Everything is an
 * atomic integer, so concurrent observes merge deterministically.
 *
 * Sharded like Counter: observe() writes only the calling thread's
 * shard (its buckets, count, sum and running min/max); readers merge —
 * buckets/count/sum add across shards, min/max reduce across the
 * non-empty ones. Merged totals equal an unsharded histogram's.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65; ///< bit widths 0..64

    void observe(std::uint64_t sample);

    /** Observe every sample binned in @p bins at once: the same totals
     *  as one observe() per sample, for a handful of atomic adds. */
    void add(const HistogramBins &bins);

    std::uint64_t count() const;
    std::uint64_t sum() const;
    /** Smallest / largest observed sample (0 / 0 when empty). */
    std::uint64_t min() const;
    std::uint64_t max() const;
    std::uint64_t bucketCount(int bucket) const;

    /** Bucket index of @p sample (its bit width). */
    static int
    bucketOf(std::uint64_t sample)
    {
        return std::bit_width(sample);
    }

    /** Inclusive upper bound of @p bucket (UINT64_MAX for the last). */
    static std::uint64_t bucketUpperBound(int bucket);

  private:
    struct alignas(telemetry_detail::kCacheLine) Shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> min{UINT64_MAX};
        std::atomic<std::uint64_t> max{0};
    };
    std::array<Shard, telemetry_detail::kShards> shards_;
};

/**
 * Unshared, non-atomic log2 bins of one recording loop's samples, to be
 * merged into a Histogram once with Histogram::add.
 */
struct HistogramBins {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = UINT64_MAX;
    std::uint64_t max = 0;

    void
    observe(std::uint64_t sample)
    {
        ++buckets[Histogram::bucketOf(sample)];
        ++count;
        sum += sample;
        min = sample < min ? sample : min;
        max = sample > max ? sample : max;
    }
};

/** Plain-data copy of one histogram at snapshot time. */
struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** (bucket index, count) for every non-empty bucket, ascending. */
    std::vector<std::pair<int, std::uint64_t>> buckets;
};

/**
 * Ordered plain-data view of a registry at one point in time.
 *
 * Ordering is lexicographic by name in every exporter, so two
 * snapshots with equal contents serialize byte-identically.
 */
class MetricsSnapshot
{
  public:
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /**
     * This snapshot minus @p earlier: counters and histogram
     * counts/sums subtract; gauges and histogram min/max keep this
     * snapshot's values (they are not accumulative). Instruments absent
     * from @p earlier pass through unchanged.
     */
    MetricsSnapshot delta(const MetricsSnapshot &earlier) const;

    /** Copy without any instrument whose name starts with @p prefix
     *  (used to strip "host." metrics from golden comparisons). */
    MetricsSnapshot withoutPrefix(const std::string &prefix) const;

    /** One JSON object: {"counters":{},"gauges":{},"histograms":{}}. */
    void writeJson(std::ostream &os) const;

    /**
     * Prometheus text exposition: names are sanitized (non-alphanumeric
     * characters become '_'), histograms expand to cumulative _bucket /
     * _sum / _count series. One instrument per line, which is what lets
     * the golden harness strip host_* lines with a line filter.
     */
    void writePrometheus(std::ostream &os) const;

    /** "kind,name,field,value" rows (histograms expand per field). */
    void writeCsv(std::ostream &os) const;
};

/**
 * Shared, hierarchical instrument store.
 *
 * counter()/gauge()/histogram() create on first use and return a
 * reference that stays valid for the registry's lifetime, so hot paths
 * resolve a name once and record through the pointer. Requesting an
 * existing name with a different instrument kind is a logic error
 * (panics): one name means one time series.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Consistent-ordering copy of every instrument's current value. */
    MetricsSnapshot snapshot() const;

    /** Drop every instrument (outstanding references dangle). */
    void clear();

    /** Number of registered instruments. */
    std::size_t size() const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Instrument {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &instrument(const std::string &name, Kind kind);

    mutable std::mutex mutex_;
    std::map<std::string, Instrument> instruments_;
};

} // namespace lergan

#endif // LERGAN_TELEMETRY_METRICS_HH
