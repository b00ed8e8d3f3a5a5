#include "core/phase_report.hh"

#include <algorithm>
#include <iomanip>
#include <string_view>

#include "critpath/critpath.hh"

namespace lergan {

std::vector<PhaseTime>
phaseTimes(const Tracer &tracer)
{
    // Labels classify into the same phase families the critical-path
    // rollups use (taskPhaseOf), so both reports bucket identically. A
    // run has a handful of families, so a flat table keyed by the
    // family's view of a label beats a map of copied strings.
    struct Family {
        std::string_view name;
        PhaseTime time;
    };
    std::vector<Family> families;
    for (const TraceEvent &event : tracer.events()) {
        const std::string_view name = taskPhaseOf(tracer.label(event));
        auto it = std::find_if(
            families.begin(), families.end(),
            [&](const Family &family) { return family.name == name; });
        if (it == families.end()) {
            families.push_back({name, {}});
            it = families.end() - 1;
        }
        PhaseTime &family = it->time;
        if (family.tasks == 0) {
            family.firstStart = event.start;
            family.lastEnd = event.end;
        } else {
            family.firstStart = std::min(family.firstStart, event.start);
            family.lastEnd = std::max(family.lastEnd, event.end);
        }
        family.busy += event.end - event.start;
        ++family.tasks;
    }
    std::vector<PhaseTime> result;
    result.reserve(families.size());
    for (Family &family : families) {
        family.time.name = std::string(family.name);
        result.push_back(std::move(family.time));
    }
    std::sort(result.begin(), result.end(),
              [](const PhaseTime &a, const PhaseTime &b) {
                  if (a.firstStart != b.firstStart)
                      return a.firstStart < b.firstStart;
                  return a.name < b.name;
              });
    return result;
}

void
printPhaseTimes(std::ostream &os, const Tracer &tracer,
                PicoSeconds makespan)
{
    os << std::left << std::setw(12) << "phase" << std::right
       << std::setw(12) << "window ms" << std::setw(12) << "busy ms"
       << std::setw(10) << "tasks" << std::setw(14) << "span/iter"
       << '\n';
    for (const PhaseTime &phase : phaseTimes(tracer)) {
        os << std::left << std::setw(12) << phase.name << std::right
           << std::fixed << std::setprecision(3) << std::setw(12)
           << psToMs(phase.span()) << std::setw(12)
           << psToMs(phase.busy) << std::setw(10) << phase.tasks
           << std::setw(13) << std::setprecision(1)
           << (makespan ? 100.0 * static_cast<double>(phase.span()) /
                              static_cast<double>(makespan)
                        : 0.0)
           << "%" << '\n';
    }
}

} // namespace lergan
