#include "baselines/prime.hh"

namespace lergan {

TrainingReport
simulatePrime(const GanModel &model, int batch_size)
{
    AcceleratorConfig config = AcceleratorConfig::prime();
    config.batchSize = batch_size;
    LerGanAccelerator accelerator(model, config);
    TrainingReport report = accelerator.trainIterations();
    report.config = "PRIME";
    return report;
}

TrainingReport
simulatePrimeNs(const GanModel &model, std::uint64_t budget_crossbars,
                int batch_size)
{
    AcceleratorConfig config = AcceleratorConfig::prime();
    config.batchSize = batch_size;
    config.duplicate = true;
    config.degree = ReplicaDegree::Low;
    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = budget_crossbars;
    LerGanAccelerator accelerator(model, config);
    TrainingReport report = accelerator.trainIterations();
    report.config = "PRIME-NS";
    return report;
}

} // namespace lergan
