#include "telemetry/metrics.hh"

#include <cstdio>

#include "common/json.hh"
#include "common/logging.hh"

namespace lergan {

void
Histogram::fold(std::uint64_t count, std::uint64_t sum, std::uint64_t low,
                 std::uint64_t high)
{
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (low < seen &&
           !min_.compare_exchange_weak(seen, low,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (high > seen &&
           !max_.compare_exchange_weak(seen, high,
                                       std::memory_order_relaxed)) {
    }
}

void
Histogram::observe(std::uint64_t sample)
{
    buckets_[bucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    fold(1, sample, sample, sample);
}

void
Histogram::add(const HistogramBins &bins)
{
    if (bins.count == 0)
        return;
    for (int b = 0; b < kBuckets; ++b) {
        if (bins.buckets[b] != 0)
            buckets_[b].fetch_add(bins.buckets[b],
                                  std::memory_order_relaxed);
    }
    fold(bins.count, bins.sum, bins.min, bins.max);
}

std::uint64_t
Histogram::min() const
{
    // An empty histogram still holds the UINT64_MAX sentinel.
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketUpperBound(int bucket)
{
    if (bucket >= kBuckets - 1)
        return UINT64_MAX;
    return (std::uint64_t{1} << bucket) - 1;
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        json.key(name).value(value);
    json.endObject();
    json.key("gauges").beginObject();
    for (const auto &[name, value] : gauges)
        json.key(name).value(value);
    json.endObject();
    json.key("histograms").beginObject();
    for (const auto &[name, hist] : histograms) {
        json.key(name).beginObject();
        json.key("count").value(hist.count);
        json.key("sum").value(hist.sum);
        json.key("min").value(hist.min);
        json.key("max").value(hist.max);
        json.key("buckets").beginArray();
        for (auto [bucket, count] : hist.buckets) {
            json.beginObject();
            json.key("le").value(Histogram::bucketUpperBound(bucket));
            json.key("count").value(count);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    os << '\n';
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            c = '_';
    }
    return out;
}

/** %.17g like the JSON writer, so text round-trips the double. */
std::string
promValue(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
MetricsSnapshot::writePrometheus(std::ostream &os) const
{
    for (const auto &[name, value] : counters) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " counter\n";
        os << p << ' ' << value << '\n';
    }
    for (const auto &[name, value] : gauges) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n";
        os << p << ' ' << promValue(value) << '\n';
    }
    for (const auto &[name, hist] : histograms) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " histogram\n";
        std::uint64_t cumulative = 0;
        for (auto [bucket, count] : hist.buckets) {
            cumulative += count;
            if (bucket >= Histogram::kBuckets - 1)
                continue; // folded into the final +Inf bucket
            os << p << "_bucket{le=\""
               << Histogram::bucketUpperBound(bucket) << "\"} "
               << cumulative << '\n';
        }
        os << p << "_bucket{le=\"+Inf\"} " << hist.count << '\n';
        os << p << "_sum " << hist.sum << '\n';
        os << p << "_count " << hist.count << '\n';
    }
}

void
MetricsSnapshot::writeCsv(std::ostream &os) const
{
    os << "kind,name,field,value\n";
    for (const auto &[name, value] : counters)
        os << "counter," << name << ",value," << value << '\n';
    for (const auto &[name, value] : gauges)
        os << "gauge," << name << ",value," << promValue(value) << '\n';
    for (const auto &[name, hist] : histograms) {
        os << "histogram," << name << ",count," << hist.count << '\n';
        os << "histogram," << name << ",sum," << hist.sum << '\n';
        os << "histogram," << name << ",min," << hist.min << '\n';
        os << "histogram," << name << ",max," << hist.max << '\n';
        for (auto [bucket, count] : hist.buckets) {
            os << "histogram," << name << ",le_"
               << Histogram::bucketUpperBound(bucket) << ',' << count
               << '\n';
        }
    }
}

MetricsRegistry::Instrument &
MetricsRegistry::instrument(const std::string &name, Kind kind)
{
    std::lock_guard lock(mutex_);
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument entry;
        entry.kind = kind;
        switch (kind) {
          case Kind::Counter:
            entry.counter = std::make_unique<Counter>();
            break;
          case Kind::Gauge:
            entry.gauge = std::make_unique<Gauge>();
            break;
          case Kind::Histogram:
            entry.histogram = std::make_unique<Histogram>();
            break;
        }
        it = instruments_.emplace(name, std::move(entry)).first;
    }
    LERGAN_ASSERT(it->second.kind == kind,
                  "metric '", name,
                  "' requested as two different instrument kinds");
    return it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *instrument(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *instrument(name, Kind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return *instrument(name, Kind::Histogram).histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    std::lock_guard lock(mutex_);
    for (const auto &[name, entry] : instruments_) {
        switch (entry.kind) {
          case Kind::Counter:
            out.counters.emplace(name, entry.counter->value());
            break;
          case Kind::Gauge:
            out.gauges.emplace(name, entry.gauge->value());
            break;
          case Kind::Histogram: {
            HistogramSnapshot hist;
            hist.count = entry.histogram->count();
            hist.sum = entry.histogram->sum();
            hist.min = entry.histogram->min();
            hist.max = entry.histogram->max();
            for (int b = 0; b < Histogram::kBuckets; ++b) {
                const std::uint64_t count =
                    entry.histogram->bucketCount(b);
                if (count != 0)
                    hist.buckets.emplace_back(b, count);
            }
            out.histograms.emplace(name, std::move(hist));
            break;
          }
        }
    }
    return out;
}

void
MetricsRegistry::clear()
{
    std::lock_guard lock(mutex_);
    instruments_.clear();
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard lock(mutex_);
    return instruments_.size();
}

} // namespace lergan
