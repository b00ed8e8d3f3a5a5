#include "core/report.hh"

#include <iomanip>

#include "common/json.hh"
#include "critpath/critpath.hh"

namespace lergan {

void
TrainingReport::print(std::ostream &os, bool verbose) const
{
    os << benchmark << " on " << config << ": " << std::fixed
       << std::setprecision(3) << timeMs() << " ms/iter, "
       << pjToMj(totalEnergyPj()) << " mJ/iter, " << crossbarsUsed
       << " crossbars\n";
    if (critpath)
        critpath->path.print(os);
    if (verbose)
        stats.print(os);
}

void
TrainingReport::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("benchmark").value(benchmark);
    json.key("config").value(config);
    json.key("ms_per_iteration").value(timeMs());
    json.key("mj_per_iteration").value(pjToMj(totalEnergyPj()));
    json.key("crossbars").value(crossbarsUsed);
    json.key("compile_ms").value(compileMs);
    if (critpath) {
        // Present only when the run recorded — default reports keep
        // their historical shape byte-for-byte.
        critpath->path.writeJson(json);
    }
    json.key("stats").beginObject();
    for (const auto &[name, value] : stats)
        json.key(name).value(value);
    json.endObject();
    json.endObject();
    os << '\n';
}

} // namespace lergan
