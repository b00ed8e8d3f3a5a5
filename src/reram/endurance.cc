#include "reram/endurance.hh"

#include "common/logging.hh"
#include "reram/ledger.hh"

namespace lergan {

EnduranceReport
estimateEndurance(const StatSet &stats, std::uint64_t stored_weights,
                  const EnduranceParams &params)
{
    LERGAN_ASSERT(stored_weights > 0, "endurance needs stored weights");
    EnduranceReport report;
    const double writes = stats.get(quantityName(Quantity::WeightWrites));
    report.writesPerCellPerIteration =
        writes / static_cast<double>(stored_weights);
    if (report.writesPerCellPerIteration <= 0.0)
        return report; // inference-only mapping: effectively immortal
    report.survivableIterations =
        params.cellEndurance / report.writesPerCellPerIteration;
    report.survivableTrainings =
        report.survivableIterations / params.iterationsPerTraining;
    return report;
}

} // namespace lergan
