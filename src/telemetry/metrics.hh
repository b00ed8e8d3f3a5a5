/**
 * @file
 * Hierarchical metrics registry: counters, gauges and histograms under
 * dot-separated names ("sim.queue.depth", "cache.model.hits").
 *
 * Recording is thread-safe: every instrument is a set of relaxed
 * atomics. The traffic is light — a sweep point makes a few dozen
 * metric writes, each of which looks its instrument up by name under
 * the registry mutex — so instruments are plain (unsharded, unpadded)
 * atomics. A MetricsSnapshot is an ordered, plain-data copy with JSON /
 * Prometheus-text / CSV exporters.
 *
 * Determinism contract: counters and histograms accumulate integers,
 * so their totals are identical regardless of how many worker threads
 * interleaved the recording — a sweep's sim-time metrics snapshot is
 * byte-identical at 1 and N workers (the golden tests pin this).
 * Host facts (the sweep's worker count) live under the reserved
 * "host." prefix; the golden scripts strip them with a line filter
 * (see docs/INTERNALS.md).
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

/** Monotonic integer count (flits, transitions, tasks). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written scalar (cache sizes, configuration facts, host times). */
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
    std::atomic<double> value_{0.0};
};

struct HistogramBins;

/**
 * Log2-bucketed distribution of unsigned samples (queue depths, waits
 * in picoseconds, makespans).
 *
 * Bucket i counts samples whose bit width is i: bucket 0 holds zeros,
 * bucket i >= 1 holds values in [2^(i-1), 2^i - 1]. Everything is an
 * atomic integer, so concurrent observes merge deterministically.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65; ///< bit widths 0..64

    void observe(std::uint64_t sample);

    /** Observe every sample binned in @p bins at once: the same totals
     *  as one observe() per sample, for a handful of atomic adds. */
    void add(const HistogramBins &bins);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Smallest / largest observed sample (0 / 0 when empty). */
    std::uint64_t min() const;

    std::uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucketCount(int bucket) const
    {
        return buckets_[bucket].load(std::memory_order_relaxed);
    }

    /** Bucket index of @p sample (its bit width). */
    static int
    bucketOf(std::uint64_t sample)
    {
        return std::bit_width(sample);
    }

    /** Inclusive upper bound of @p bucket (UINT64_MAX for the last). */
    static std::uint64_t bucketUpperBound(int bucket);

  private:
    /** Fold a batch's count, sum and extremes into the totals. */
    void fold(std::uint64_t count, std::uint64_t sum, std::uint64_t low,
               std::uint64_t high);

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
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
 * reference that stays valid for the registry's lifetime. Every call
 * looks the name up under the registry mutex; the write sites call it
 * per record (a few dozen times per sweep point), so the lookup is the
 * whole synchronization cost. Requesting an existing name with a
 * different instrument kind is a logic error (panics): one name means
 * one time series.
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
