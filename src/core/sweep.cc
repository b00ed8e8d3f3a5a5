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
             CompiledModelCache &cache,
             MemoCache<IterationTemplate> &templates, ExecScratch *scratch)
{
    config.checkUsable();
    // Validated compile: every mapping entering the cache passes
    // validateMapping, with full diagnostics on failure
    // (core/validate.hh), so the accelerator skips re-validating it.
    PreparedPoint point;
    // One key for both caches: the fingerprint is ~1 KB of text, so it
    // is built once per point.
    const std::string key = pairFingerprint(model, config);
    std::shared_ptr<const CompiledGan> compiled;
    {
        Span span("compile");
        compiled = cache.get(
            key,
            [&] {
                return std::make_shared<const CompiledGan>(
                    compileGanValidated(model, config));
            },
            &point.cacheHit);
        span.attr("cache_hit", point.cacheHit);
    }
    point.accelerator = std::make_unique<LerGanAccelerator>(
        model, config, std::move(compiled),
        LerGanAccelerator::Prevalidated{});
    point.accelerator->useScratch(scratch);
    // The iteration DAG is a pure function of (model, config): lower it
    // once per pair, replay it for every later run of the pair.
    {
        Span span("template");
        point.tmpl = templates.get(key, [&] {
            return point.accelerator->makeIterationTemplate();
        });
    }
    return point;
}

SweepResult
simulatePoint(PreparedPoint &point, int iterations,
              const Instrumentation &instruments)
{
    LerGanAccelerator &accelerator = *point.accelerator;
    const bool audit = instruments.audit.enabled;
    MetricsRegistry *metrics = instruments.telemetry.get();
    // The audit reads the run's record: the critical path's when that
    // is recorded, else the scratch's reusable one.
    ExecRecord critpathRecord;
    ExecRecord *record = instruments.critpath ? &critpathRecord
                         : audit ? &accelerator.scratch().observerRecord()
                                 : nullptr;
    SweepResult result;
    {
        Span span("simulate");
        result.report = accelerator.trainIterations(
            iterations, nullptr, metrics, point.tmpl.get(), record);
    }
    if (instruments.critpath) {
        // The record is only meaningful against the graph it was taken
        // from, so the RecordedRun shares ownership of the template.
        result.report.critpath = makeRecordedRun(
            std::shared_ptr<const TaskGraph>(point.tmpl, &point.tmpl->graph),
            accelerator.resourceNames(), std::move(critpathRecord),
            accelerator.scratch());
        if (metrics)
            metrics->counter("critpath.records").add(1);
    }
    result.crossbarsUsed = accelerator.compiled().crossbarsUsed;
    result.oversubscribed = accelerator.compiled().oversubscribedCrossbars;
    if (audit) {
        Span span("audit");
        result.audit = AuditContext().run(
            {&accelerator.model(), &accelerator.config(),
             &accelerator.compiled(), &result.report, nullptr,
             &point.tmpl->graph,
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
    return *this;
}

ExperimentSweep &
ExperimentSweep::addConfig(const std::string &label,
                           const AcceleratorConfig &config)
{
    configs_.emplace_back(label, config);
    return *this;
}

ExperimentSweep &
ExperimentSweep::addPoint(const GanModel &model, const std::string &label,
                          const AcceleratorConfig &config)
{
    extraPoints_.push_back({model, label, config});
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
        /** First-config grid point: the pruning reference, always
         *  simulated fully. */
        bool baseline = false;
        /** Non-baseline grid point: bound pruning may skip its event
         *  simulation. Explicit extra points are never prunable. */
        bool prunable = false;
    };
    std::vector<Point> points;
    points.reserve(pointCount());
    for (const GanModel &model : models_) {
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            points.push_back({&model, &configs_[c].first,
                              &configs_[c].second, c == 0, c != 0});
        }
    }
    for (const ExplicitPoint &extra : extraPoints_)
        points.push_back({&extra.model, &extra.label, &extra.config});
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
    // calendar and counter buffers grow to the largest graph once, then
    // steady-state points allocate none. Each lane is one thread
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
        PreparedPoint prepared = preparePoint(
            *point.model, *point.config, *cache_, *templates_,
            &scratch[lane]);
        LerGanAccelerator &accelerator = *prepared.accelerator;
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
                const MakespanBounds bounds = makespanBounds(
                    prepared.tmpl->graph,
                    accelerator.machine().pool().size());
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
                    result.report = accelerator.estimateIterations(
                        options.iterations, prepared.tmpl.get(),
                        bounds.upper);
                    result.crossbarsUsed =
                        accelerator.compiled().crossbarsUsed;
                    result.oversubscribed =
                        accelerator.compiled().oversubscribedCrossbars;
                    if (metrics)
                        metrics->counter("critpath.pruned").add(1);
                    recordHostTelemetry();
                    return;
                }
            }
        }

        result = simulatePoint(prepared, options.iterations, instruments_);
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
