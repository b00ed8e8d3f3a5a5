#include "core/sweep.hh"

#include <stdexcept>
#include <unordered_map>

#include "common/logging.hh"
#include "core/validate.hh"
#include "exec/thread_pool.hh"
#include "critpath/critpath.hh"
#include "critpath/whatif.hh"
#include "telemetry/tracing.hh"

namespace lergan {

PreparedPoint
preparePoint(const GanModel &model, const AcceleratorConfig &config,
             const std::string &key, CompiledModelCache &cache,
             MemoCache<IterationTemplate> &templates)
{
    config.checkUsable();
    // Validated compile: every mapping entering the cache passes
    // validateMapping, with full diagnostics on failure
    // (core/validate.hh), so the accelerator skips re-validating it.
    PreparedPoint point;
    point.model = &model;
    point.config = &config;
    {
        Span span("compile");
        point.compiled = cache.get(
            key,
            [&] {
                return std::make_shared<const CompiledGan>(
                    compileGanValidated(model, config));
            },
            &point.cacheHit);
        span.attr("cache_hit", point.cacheHit);
    }
    // The iteration DAG is a pure function of (model, config): lower it
    // once per pair, on a machine built for the purpose, and replay it
    // for every later run of the pair.
    {
        Span span("template");
        point.tmpl = templates.get(key, [&] {
            return LerGanAccelerator(model, config, point.compiled,
                                     LerGanAccelerator::Prevalidated{})
                .makeIterationTemplate();
        });
    }
    return point;
}

SweepResult
simulatePoint(const PreparedPoint &point, ExecScratch &scratch,
              int iterations, const Instrumentation &instruments)
{
    const IterationTemplate &tmpl = *point.tmpl;
    const bool audit = instruments.audit.enabled;
    MetricsRegistry *metrics = instruments.telemetry.get();
    // The audit reads the run's record: the critical path's when that
    // is recorded, else the scratch's reusable one.
    ExecRecord critpathRecord;
    ExecRecord *record = instruments.critpath ? &critpathRecord
                         : audit             ? &scratch.observerRecord()
                                             : nullptr;
    SweepResult result;
    {
        Span span("simulate");
        const PicoSeconds makespan =
            runIteration(tmpl, scratch, nullptr, metrics, record);
        result.report = assembleReport(*point.model, *point.config,
                                       *point.compiled, tmpl, iterations,
                                       makespan);
    }
    if (instruments.critpath) {
        // The record is only meaningful against the graph it was taken
        // from, so the RecordedRun shares ownership of the template.
        result.report.critpath = makeRecordedRun(
            std::shared_ptr<const TaskGraph>(point.tmpl, &tmpl.graph),
            *tmpl.resourceNames, std::move(critpathRecord), scratch);
        if (metrics)
            metrics->counter("critpath.records").add(1);
    }
    result.crossbarsUsed = point.compiled->crossbarsUsed;
    result.oversubscribed = point.compiled->oversubscribedCrossbars;
    if (audit) {
        Span span("audit");
        result.audit = AuditContext().run(
            {point.model, point.config, point.compiled.get(),
             &result.report, nullptr, &tmpl.graph,
             instruments.critpath ? &result.report.critpath->record
                                  : record});
        span.attr("clean", result.audit.ok());
        span.attr("checks",
                  static_cast<std::int64_t>(result.audit.checksRun));
    }
    return result;
}

ExperimentSweep::ExperimentSweep()
    : cache_(std::make_shared<CompiledModelCache>()),
      templates_(std::make_shared<MemoCache<IterationTemplate>>())
{
}

ExperimentSweep &
ExperimentSweep::addBenchmark(const GanModel &model)
{
    models_.push_back(model);
    modelKeys_.push_back(modelFingerprint(model));
    return *this;
}

ExperimentSweep &
ExperimentSweep::addConfig(const std::string &label,
                           const AcceleratorConfig &config)
{
    configs_.push_back({label, config, configFingerprint(config)});
    return *this;
}

ExperimentSweep &
ExperimentSweep::addPoint(const GanModel &model, const std::string &label,
                          const AcceleratorConfig &config)
{
    extraPoints_.push_back({model, label, config,
                            pairFingerprint(model, config)});
    return *this;
}

ExperimentSweep &
ExperimentSweep::auditWith(AuditOptions)
{
    instruments_.audit = AuditOptions::full();
    return *this;
}

ExperimentSweep &
ExperimentSweep::withTelemetry(std::shared_ptr<MetricsRegistry> registry)
{
    instruments_.telemetry = std::move(registry);
    return *this;
}

ExperimentSweep &
ExperimentSweep::withTracing(std::shared_ptr<FlightRecorder> recorder)
{
    instruments_.recorder = std::move(recorder);
    return *this;
}

ExperimentSweep &
ExperimentSweep::withCriticalPath(bool enabled)
{
    instruments_.critpath = enabled;
    return *this;
}

ExperimentSweep &
ExperimentSweep::withBoundPruning(bool enabled)
{
    pruning_ = enabled;
    return *this;
}

std::size_t
ExperimentSweep::pointCount() const
{
    return models_.size() * configs_.size() + extraPoints_.size();
}

std::vector<SweepResult>
ExperimentSweep::run(const RunOptions &options) const
{
    struct Point {
        const GanModel *model;
        const std::string *label;
        const AcceleratorConfig *config;
        /** pairFingerprint(*model, *config), joined from the halves
         *  formatted when they were added. */
        std::string key;
        /** First-config grid point: the pruning reference, always
         *  simulated fully. */
        bool baseline = false;
        /** Non-baseline grid point: bound pruning may skip its event
         *  simulation. Explicit extra points are never prunable. */
        bool prunable = false;
    };
    std::vector<Point> points;
    points.reserve(pointCount());
    for (std::size_t m = 0; m < models_.size(); ++m) {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            const GridConfig &config = configs_[c];
            points.push_back(
                {&models_[m], &config.label, &config.config,
                 pairFingerprint(modelKeys_[m], config.key), c == 0,
                 c != 0});
        }
    }
    for (const ExplicitPoint &extra : extraPoints_) {
        points.push_back(
            {&extra.model, &extra.label, &extra.config, extra.key});
    }
    LERGAN_ASSERT(!points.empty(),
                  "sweep needs at least one benchmark and one config");
    if (options.iterations < 1) {
        throw std::invalid_argument(
            "need at least one iteration, got " +
            std::to_string(options.iterations));
    }
    if (options.threads < 0) {
        throw std::invalid_argument(
            "threads must be >= 0 (0 = hardware concurrency), got " +
            std::to_string(options.threads));
    }

    MetricsRegistry *metrics = instruments_.telemetry.get();
    std::vector<SweepResult> results(points.size());

    // Per-benchmark baseline makespans the pruning decisions compare
    // against. Filled on the main thread between the baseline batch and
    // the rest, so the point bodies only ever read it.
    std::unordered_map<std::string, PicoSeconds> baselineTime;

    // One executor scratch per worker lane, reused across every point
    // that lane runs (and across the pruning path's two batches): the
    // calendar, counter and per-resource buffers grow to the largest
    // graph once, then steady-state points allocate none; each run
    // resets what it reads, so no point sees the one before it. Each lane is one thread
    // (parallelFor), so indexing by lane is race-free.
    const unsigned workerCount =
        options.threads == 0 ? defaultThreadCount()
                             : static_cast<unsigned>(options.threads);
    std::vector<ExecScratch> scratch(workerCount);

    const auto body = [&](std::size_t i, std::size_t lane) {
        const Point &point = points[i];
        const std::uint64_t beganNs =
            options.pointTelemetry ? traceNowNs() : 0;
        // Under withTracing, the engine's root "point" span is open on
        // this thread; name it and hang the stage spans below it. All
        // of this is inert (one TL load per scope) when untraced.
        annotate("benchmark", point.model->name);
        annotate("config", *point.label);
        const PreparedPoint prepared = preparePoint(
            *point.model, *point.config, point.key, *cache_, *templates_);
        SweepResult &result = results[i];

        const auto recordHostTelemetry = [&] {
            if (!options.pointTelemetry)
                return;
            result.telemetry.ran = true;
            result.telemetry.cacheHit = prepared.cacheHit;
            result.telemetry.hostMs =
                static_cast<double>(traceNowNs() - beganNs) * 1e-6;
        };

        if (pruning_ && point.prunable) {
            const auto base = baselineTime.find(point.model->name);
            if (base != baselineTime.end()) {
                const MakespanBounds bounds =
                    makespanBounds(prepared.tmpl->graph,
                                   prepared.tmpl->resourceNames->size());
                if (bounds.provenFasterThan(base->second) ||
                    bounds.provenSlowerThan(base->second)) {
                    // The bracket already decides which side of the
                    // baseline this point lands on: skip the full event
                    // simulation and report the executor-mirror
                    // makespan, which equals what the simulation would
                    // have produced (energies are build-time facts and
                    // stay exact). No execution, so no audit or record.
                    Span span("estimate");
                    span.attr("pruned", true);
                    result.report = estimateReport(
                        *point.model, *point.config, *prepared.compiled,
                        *prepared.tmpl, options.iterations, bounds.upper);
                    result.crossbarsUsed = prepared.compiled->crossbarsUsed;
                    result.oversubscribed =
                        prepared.compiled->oversubscribedCrossbars;
                    if (metrics)
                        metrics->counter("critpath.pruned").add(1);
                    recordHostTelemetry();
                    return;
                }
            }
        }

        result = simulatePoint(prepared, scratch[lane], options.iterations,
                               instruments_);
        if (pruning_ && metrics)
            metrics->counter("critpath.simulated").add(1);
        recordHostTelemetry();
    };

    FlightRecorder *recorder = instruments_.recorder.get();
    std::vector<PointStatus> statuses;
    if (!pruning_) {
        statuses = runPoints(points.size(),
                             static_cast<unsigned>(options.threads),
                             body, options.onProgress, metrics,
                             recorder);
    } else {
        // Baselines first (they anchor the pruning decisions), then
        // everything else; progress counts stay monotonic across the
        // two batches.
        statuses.resize(points.size());
        std::vector<std::size_t> first, rest;
        for (std::size_t i = 0; i < points.size(); ++i)
            (points[i].baseline ? first : rest).push_back(i);
        const auto runBatch = [&](const std::vector<std::size_t> &batch,
                                  std::size_t done_before) {
            if (batch.empty())
                return;
            ProgressFn progress;
            if (options.onProgress) {
                progress = [&, done_before](std::size_t done,
                                            std::size_t) {
                    options.onProgress(done_before + done,
                                       points.size());
                };
            }
            // Batch index != grid index, so map trace ids back to the
            // original grid: a point keeps one trace id no matter
            // which batch ran it.
            const auto batch_statuses = runPoints(
                batch.size(), static_cast<unsigned>(options.threads),
                [&](std::size_t k, std::size_t lane) {
                    body(batch[k], lane);
                },
                progress, metrics, recorder, [&](std::size_t k) {
                    return static_cast<TraceId>(batch[k]) + 1;
                });
            for (std::size_t k = 0; k < batch.size(); ++k)
                statuses[batch[k]] = batch_statuses[k];
        };
        runBatch(first, 0);
        for (std::size_t i : first) {
            if (statuses[i].ok) {
                baselineTime[points[i].model->name] =
                    results[i].report.iterationTime;
            }
        }
        runBatch(rest, first.size());
    }

    if (metrics) {
        // Exact totals (deterministic: misses = distinct compiled
        // pairs, regardless of worker count or completion order).
        metrics->gauge("cache.model.hits")
            .set(static_cast<double>(cache_->hits()));
        metrics->gauge("cache.model.misses")
            .set(static_cast<double>(cache_->misses()));
        metrics->gauge("cache.model.size")
            .set(static_cast<double>(cache_->size()));
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepResult &result = results[i];
        if (!statuses[i].ok) {
            // Discard anything a partially-run body left behind.
            result = SweepResult{};
            result.failed = true;
            result.error = statuses[i].error;
            result.traceDump = std::move(statuses[i].spanDump);
        }
        result.benchmark = points[i].model->name;
        result.configLabel = *points[i].label;
        if (recorder && options.pointTelemetry) {
            result.telemetry.traced = true;
            result.telemetry.spanCount = statuses[i].spanCount;
            result.telemetry.queueWaitMs = statuses[i].queueWaitMs;
        }
    }
    return results;
}

std::vector<SweepResult>
ExperimentSweep::run(int iterations) const
{
    RunOptions options;
    options.iterations = iterations;
    return run(options);
}

} // namespace lergan
