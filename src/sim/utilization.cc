#include "sim/utilization.hh"

#include <algorithm>
#include <cstdint>
#include <array>
#include <iomanip>

namespace lergan {

std::vector<ResourceUsage>
topBusyResources(const ResourcePool &pool, PicoSeconds makespan,
                 std::size_t top_k)
{
    std::vector<ResourceUsage> usage;
    usage.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        ResourceUsage entry;
        entry.name = pool.name(i);
        entry.busy = pool.busyTime(i);
        entry.reservations = pool.reservations(i);
        entry.utilization =
            makespan == 0 ? 0.0
                          : static_cast<double>(entry.busy) /
                                static_cast<double>(makespan);
        usage.push_back(std::move(entry));
    }
    std::sort(usage.begin(), usage.end(),
              [](const ResourceUsage &a, const ResourceUsage &b) {
                  if (a.busy != b.busy)
                      return a.busy > b.busy;
                  return a.name < b.name;
              });
    if (usage.size() > top_k)
        usage.resize(top_k);
    return usage;
}

void
recordPoolMetrics(const ResourcePool &pool, MetricsRegistry &registry)
{
    // Accumulate per category locally first: one registry lookup per
    // non-empty category instead of three per resource (the lookup
    // takes the registry's creation mutex, and pools hold thousands of
    // resources).
    struct CategoryTotals {
        std::uint64_t busy = 0;
        std::uint64_t wait = 0;
        std::uint64_t reservations = 0;
    };
    std::array<CategoryTotals, kNumResourceCategories> totals{};
    for (std::size_t i = 0; i < pool.size(); ++i) {
        CategoryTotals &t =
            totals[static_cast<std::size_t>(pool.categories()[i])];
        t.busy += static_cast<std::uint64_t>(pool.busyTime(i));
        t.wait += static_cast<std::uint64_t>(pool.waitTime(i));
        t.reservations += pool.reservations(i);
    }
    for (std::size_t c = 0; c < kNumResourceCategories; ++c) {
        const CategoryTotals &t = totals[c];
        if (t.reservations == 0)
            continue;
        const std::string category = kResourceCategoryNames[c];
        registry.counter("sim.resource.busy_ps." + category).add(t.busy);
        registry.counter("sim.resource.wait_ps." + category).add(t.wait);
        registry.counter("sim.resource.reservations." + category)
            .add(t.reservations);
    }
}

void
printUtilization(std::ostream &os, const ResourcePool &pool,
                 PicoSeconds makespan, std::size_t top_k)
{
    for (const ResourceUsage &usage :
         topBusyResources(pool, makespan, top_k)) {
        os << "  " << std::left << std::setw(28) << usage.name
           << std::right << std::fixed << std::setprecision(3)
           << std::setw(12) << psToMs(usage.busy) << " ms  "
           << std::setprecision(1) << std::setw(5)
           << 100.0 * usage.utilization << "%  "
           << usage.reservations << " reservations\n";
    }
}

} // namespace lergan
