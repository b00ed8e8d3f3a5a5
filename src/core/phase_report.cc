#include "core/phase_report.hh"

#include <algorithm>
#include <array>
#include <iomanip>

namespace lergan {

std::vector<PhaseTime>
phaseTimes(const Tracer &tracer)
{
    // Events group by their task's phase, the same buckets the
    // critical-path rollups use.
    std::array<PhaseTime, kNumPhases> phases{};
    for (const TraceEvent &event : tracer.events()) {
        PhaseTime &phase =
            phases[static_cast<std::size_t>(tracer.phase(event))];
        if (phase.tasks == 0) {
            phase.firstStart = event.start;
            phase.lastEnd = event.end;
        } else {
            phase.firstStart = std::min(phase.firstStart, event.start);
            phase.lastEnd = std::max(phase.lastEnd, event.end);
        }
        phase.busy += event.end - event.start;
        ++phase.tasks;
    }
    std::vector<PhaseTime> result;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (phases[p].tasks == 0)
            continue;
        phases[p].name = kPhaseNames[p];
        result.push_back(std::move(phases[p]));
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
