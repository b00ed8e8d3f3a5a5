#include "core/api.hh"

#include <optional>
#include <stdexcept>
#include <string>

#include "telemetry/tracing.hh"

namespace lergan {

SimulationSession::SimulationSession(AcceleratorConfig config)
    : SimulationSession(std::move(config),
                        std::make_shared<CompiledModelCache>())
{
}

SimulationSession::SimulationSession(
    AcceleratorConfig config, std::shared_ptr<CompiledModelCache> cache)
    : config_(std::move(config)), cache_(std::move(cache)),
      templates_(std::make_shared<MemoCache<IterationTemplate>>())
{
}

SimulationSession &
SimulationSession::auditWith(AuditOptions options)
{
    instruments_.audit = std::move(options);
    instruments_.audit.enabled = true;
    return *this;
}

SimulationSession &
SimulationSession::withFaults(const FaultConfig &faults)
{
    faults.checkUsable();
    config_.faults = faults;
    return *this;
}

SimulationSession &
SimulationSession::withTelemetry(std::shared_ptr<MetricsRegistry> registry)
{
    instruments_.telemetry = std::move(registry);
    return *this;
}

SimulationSession &
SimulationSession::withTracing(std::shared_ptr<FlightRecorder> recorder)
{
    instruments_.recorder = std::move(recorder);
    return *this;
}

SimulationSession &
SimulationSession::withCriticalPath(bool enabled)
{
    instruments_.critpath = enabled;
    return *this;
}

SweepResult
SimulationSession::runPoint(const GanModel &model, int iterations,
                            const Instrumentation &instruments) const
{
    if (iterations < 1) {
        throw std::invalid_argument("need at least one iteration, got " +
                                    std::to_string(iterations));
    }
    // With a recorder attached, the whole run executes under a root
    // "run" span on the main-thread ring; the pipeline's stage spans are
    // inert (one thread-local load each) when untraced.
    std::optional<MainLaneBinding> bind;
    std::optional<Span> root;
    if (instruments.recorder) {
        bind.emplace(*instruments.recorder);
        root.emplace(instruments.recorder->allocateTraceId(), "run");
        root->attr("benchmark", model.name);
        root->attr("iterations", static_cast<std::int64_t>(iterations));
    }
    PreparedPoint point = preparePoint(model, config_, *cache_, *templates_);
    return simulatePoint(point, iterations, instruments);
}

TrainingReport
SimulationSession::run(const GanModel &model, int iterations) const
{
    SweepResult result = runPoint(model, iterations, instruments_);
    if (!result.audit.ok())
        throw AuditError(std::move(result.audit));
    return std::move(result.report);
}

AuditVerdict
SimulationSession::audit(const GanModel &model, int iterations,
                         TrainingReport *report) const
{
    Instrumentation instruments = instruments_;
    instruments.audit = AuditOptions::full();
    SweepResult result = runPoint(model, iterations, instruments);
    if (report)
        *report = std::move(result.report);
    return std::move(result.audit);
}

} // namespace lergan
