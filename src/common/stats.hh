/**
 * @file
 * Lightweight named-statistic registry.
 *
 * Components register scalar counters/accumulators under dotted names
 * ("tile.adc_energy_pj"). A StatSet can be merged, scaled, diffed and
 * pretty-printed; benches use it to emit the per-figure series.
 */

#ifndef LERGAN_COMMON_STATS_HH
#define LERGAN_COMMON_STATS_HH

#include <map>
#include <ostream>
#include <string>

namespace lergan {

/**
 * An ordered map from statistic name to accumulated double value.
 *
 * Deliberately simple: all statistics in this project are accumulated
 * scalars (times, energies, counts). Ordering is lexicographic so reports
 * are deterministic.
 */
class StatSet
{
  public:
    /** Add @p delta to the statistic named @p name (creating it at 0). */
    void add(const std::string &name, double delta);

    /** Overwrite the statistic named @p name. */
    void set(const std::string &name, double value);

    /** @return value of @p name, or 0 if absent. */
    double get(const std::string &name) const;

    /** @return true iff a statistic named @p name exists. */
    bool has(const std::string &name) const;

    /** Merge all statistics of @p other into this set (summing). */
    void merge(const StatSet &other);

    /** Multiply every statistic by @p factor. */
    void scale(double factor);

    /** Sum of all statistics whose name starts with @p prefix. */
    double sumPrefix(const std::string &prefix) const;

    /** Number of registered statistics. */
    std::size_t size() const { return values_.size(); }

    /** Iteration support for reporting. */
    auto begin() const { return values_.begin(); }
    auto end() const { return values_.end(); }

    /** Print "name = value" lines, optionally filtered by prefix. */
    void print(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::map<std::string, double> values_;
};

} // namespace lergan

#endif // LERGAN_COMMON_STATS_HH
