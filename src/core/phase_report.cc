#include "core/phase_report.hh"

#include <algorithm>
#include <array>
#include <iomanip>

namespace lergan {

std::vector<PhaseTime>
phaseTimes(const TaskGraph &graph, const ExecRecord &record)
{
    return phaseTimes(graph.identity()->phases, record.start, record.end);
}

std::vector<PhaseTime>
phaseTimes(std::span<const Phase> phases_of,
           std::span<const PicoSeconds> start,
           std::span<const PicoSeconds> end)
{
    // Tasks group by their phase, the same buckets the critical-path
    // rollups use.
    std::array<PhaseTime, kNumPhases> phases{};
    for (std::size_t id = 0; id < start.size(); ++id) {
        PhaseTime &phase = phases[static_cast<std::size_t>(phases_of[id])];
        if (phase.tasks == 0) {
            phase.firstStart = start[id];
            phase.lastEnd = end[id];
        } else {
            phase.firstStart = std::min(phase.firstStart, start[id]);
            phase.lastEnd = std::max(phase.lastEnd, end[id]);
        }
        phase.busy += end[id] - start[id];
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
printPhaseTimes(std::ostream &os, const TaskGraph &graph,
                const ExecRecord &record)
{
    const PicoSeconds makespan = record.makespan;
    os << std::left << std::setw(12) << "phase" << std::right
       << std::setw(12) << "window ms" << std::setw(12) << "busy ms"
       << std::setw(10) << "tasks" << std::setw(14) << "span/iter"
       << '\n';
    for (const PhaseTime &phase : phaseTimes(graph, record)) {
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
