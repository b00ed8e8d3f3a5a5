#include "workload.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "audit/audit.hh"
#include "core/compiler.hh"
#include "core/sweep_io.hh"

namespace perfbench {

using namespace lergan;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

void
returnFreedMemory()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

namespace {

/** Cache lookups @p sweep has made since it was built. */
CacheCounts
lookupsOf(const ExperimentSweep &sweep)
{
    return {sweep.cache().hits(), sweep.cache().misses(),
            sweep.templates().hits(), sweep.templates().misses()};
}

/** LerGAN-low granted only the PRIME mapping's crossbar space. */
AcceleratorConfig
lowEqualSpace(const GanModel &model)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.normalizedSpace = true;
    config.spaceBudgetCrossbars =
        compileGan(model, AcceleratorConfig::prime()).crossbarsUsed;
    return config;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"fig19-warm", Mode::Warm},
        {"fig19-observed", Mode::Observed},
        {"cold-designs", Mode::Cold},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

std::string
keyOf(const std::string &benchmark, const std::string &config)
{
    return benchmark + "|" + config;
}

PointDigest
digestOf(const SweepResult &result)
{
    PointDigest digest;
    digest.iterationPs = result.report.iterationTime;
    for (const auto &[key, value] : result.report.stats) {
        if (key.rfind("energy.", 0) == 0 || key == "total.energy_mj")
            digest.energies[key] = value;
    }
    return digest;
}

std::size_t
countMismatches(const std::vector<SweepResult> &results,
                const Reference &reference, std::ostream *why)
{
    std::size_t bad = 0;
    for (const SweepResult &result : results) {
        const auto fail = [&](const std::string &reason) {
            ++bad;
            if (why) {
                *why << "gate: " << result.benchmark << "/"
                     << result.configLabel << ": " << reason << "\n";
            }
        };
        if (result.failed) {
            fail("point failed: " + result.error);
            continue;
        }
        const auto ref =
            reference.find(keyOf(result.benchmark, result.configLabel));
        if (ref == reference.end()) {
            fail("no reference");
            continue;
        }
        const PointDigest got = digestOf(result);
        if (got.iterationPs != ref->second.iterationPs) {
            fail("makespan " + std::to_string(got.iterationPs) +
                 " ps, reference " +
                 std::to_string(ref->second.iterationPs) + " ps");
            continue;
        }
        bool same = got.energies.size() == ref->second.energies.size();
        for (const auto &[key, want] : ref->second.energies) {
            const auto it = got.energies.find(key);
            same = same && it != got.energies.end() &&
                   std::fabs(it->second - want) <=
                       1e-9 * std::max(std::fabs(want), 1e-30);
        }
        if (!same)
            fail("energies differ from the reference");
    }
    return bad;
}

Reference
readReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference '" + path + "'");
    Reference reference;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string benchmark, config, key, value;
        if (!std::getline(fields, benchmark, '\t') ||
            !std::getline(fields, config, '\t') ||
            !std::getline(fields, key, '\t') ||
            !std::getline(fields, value, '\t')) {
            throw std::runtime_error("malformed reference line '" + line +
                                     "'");
        }
        PointDigest &digest = reference[keyOf(benchmark, config)];
        if (key == "iteration_ps")
            digest.iterationPs = std::stoull(value);
        else
            digest.energies[key] = std::stod(value);
    }
    return reference;
}

void
writeReference(const std::string &path, const Reference &reference)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write reference '" + path + "'");
    char number[64];
    for (const auto &[point, digest] : reference) {
        const std::size_t bar = point.find('|');
        const std::string prefix =
            point.substr(0, bar) + "\t" + point.substr(bar + 1) + "\t";
        out << prefix << "iteration_ps\t" << digest.iterationPs << "\n";
        for (const auto &[key, value] : digest.energies) {
            std::snprintf(number, sizeof number, "%.17g", value);
            out << prefix << key << "\t" << number << "\n";
        }
    }
}

std::string
exportOf(std::vector<SweepResult> &results)
{
    for (SweepResult &result : results)
        result.telemetry = PointTelemetry{};
    std::ostringstream out;
    writeSweepJson(out, results);
    writeSweepCsv(out, results);
    return out.str();
}

Workload::Workload(const WorkloadSpec &spec, std::uint64_t seed)
    : spec_(spec), seed_(seed)
{
}

const std::vector<std::pair<std::string, AcceleratorConfig>> &
Workload::gridConfigs()
{
    static const std::vector<std::pair<std::string, AcceleratorConfig>>
        configs = {
            {"prime", AcceleratorConfig::prime()},
            {"low", AcceleratorConfig::lerGan(ReplicaDegree::Low)},
            {"middle", AcceleratorConfig::lerGan(ReplicaDegree::Middle)},
            {"high", AcceleratorConfig::lerGan(ReplicaDegree::High)},
        };
    return configs;
}

CacheCounts &
CacheCounts::operator+=(const CacheCounts &other)
{
    compileHits += other.compileHits;
    compileMisses += other.compileMisses;
    templateHits += other.templateHits;
    templateMisses += other.templateMisses;
    return *this;
}

CacheCounts
Workload::setup()
{
    // The Fig. 19 grid is the paper's fixed input, in Table V order: a
    // lane's per-point host time depends on the point it ran before, so
    // a seeded order would change the work. The seed drives the
    // generated designs only.
    designs_ = spec_.mode == Mode::Cold ? generateDesigns(seed_, kColdDesigns)
                                        : tableV();
    models_.clear();
    extras_.clear();
    sweep_.reset();
    for (const Design &design : designs_)
        models_.push_back(parseDesign(design));
    if (spec_.mode == Mode::Cold)
        return pass(1, false).caches;
    // The equal-space budget depends on each benchmark's own PRIME
    // mapping, so those points are explicit, one per benchmark.
    for (std::size_t m = 0; m < models_.size(); ++m)
        extras_.push_back({m, "low-NS", lowEqualSpace(models_[m])});
    sweep_ = freshSweep(false);
    configure(*sweep_);
    return pass(1, false).caches;
}

void
Workload::release()
{
    sweep_.reset();
    extras_.clear();
    models_.clear();
    designs_.clear();
    returnFreedMemory();
}

void
Workload::configure(ExperimentSweep &sweep) const
{
    switch (spec_.mode) {
      case Mode::Observed:
        sweep.auditWith(AuditOptions::full())
            .withCriticalPath()
            .withTelemetry()
            .withTracing();
        break;
      case Mode::Warm:
      case Mode::Cold:
        break;
    }
}

std::unique_ptr<ExperimentSweep>
Workload::freshSweep(bool reparse) const
{
    auto sweep = std::make_unique<ExperimentSweep>();
    std::vector<GanModel> parsed;
    if (reparse) {
        for (const Design &design : designs_)
            parsed.push_back(parseDesign(design));
    }
    const std::vector<GanModel> &models = reparse ? parsed : models_;
    for (const GanModel &model : models)
        sweep->addBenchmark(model);
    for (const auto &[label, config] : gridConfigs())
        sweep->addConfig(label, config);
    for (const Extra &extra : extras_)
        sweep->addPoint(models[extra.model], extra.label, extra.config);
    return sweep;
}

std::size_t
Workload::pointsPerPass() const
{
    return models_.size() * gridConfigs().size() + extras_.size();
}

PassOutput
Workload::pass(int threads, bool point_telemetry)
{
    RunOptions options;
    options.threads = threads;
    options.iterations = kIterations;
    options.pointTelemetry = point_telemetry;

    PassOutput out;
    const auto start = std::chrono::steady_clock::now();
    if (spec_.mode == Mode::Cold) {
        // Every pass parses the DSL and builds a fresh sweep, so every
        // point misses both caches; the export is part of the pass.
        const auto sweep = freshSweep(true);
        out.results = sweep->run(options);
        for (const SweepResult &result : out.results)
            out.hostMs.push_back(result.telemetry.hostMs);
        out.exported = exportOf(out.results);
        out.seconds = secondsSince(start);
        out.caches = lookupsOf(*sweep);
        return out;
    }
    const CacheCounts before = lookupsOf(*sweep_);
    out.results = sweep_->run(options);
    out.seconds = secondsSince(start);
    for (const SweepResult &result : out.results)
        out.hostMs.push_back(result.telemetry.hostMs);
    const CacheCounts after = lookupsOf(*sweep_);
    out.caches = {after.compileHits - before.compileHits,
                  after.compileMisses - before.compileMisses,
                  after.templateHits - before.templateHits,
                  after.templateMisses - before.templateMisses};
    return out;
}

Reference
Workload::reference(const std::string &reference_dir) const
{
    if (spec_.mode != Mode::Cold)
        return readReference(reference_dir + "/fig19.tsv");
    // Independent of the sweep path: no caches, no worker pool, a
    // fresh compile and a rebuilt iteration graph per point.
    Reference reference;
    for (const GanModel &model : models_) {
        for (const auto &[label, config] : gridConfigs()) {
            LerGanAccelerator accelerator(model, config);
            SweepResult result;
            result.report = accelerator.trainIterations(kIterations);
            reference[keyOf(model.name, label)] = digestOf(result);
        }
    }
    return reference;
}

} // namespace perfbench
