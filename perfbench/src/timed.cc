/**
 * @file
 * The timed run: 1-worker and N-worker closed-loop passes with set-ups
 * spread among them, all through the correctness gate.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "hostspeed.hh"
#include "measure.hh"

namespace perfbench {

using namespace lergan;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 5;

/** Share of the run's pass time spent on 1-worker passes. */
constexpr double kSingleWorkerShare = 0.7;

/** Share of pass time spent on host-speed probes between passes. */
constexpr double kProbeShare = 0.1;

/** Paper Sec. VI-C: mean high-degree LerGAN speed-up over PRIME. */
constexpr double kPaperSpeedup = 7.46;

/** Mean over benchmarks of PRIME time / high-degree time. */
double
meanHighSpeedup(const std::vector<SweepResult> &results)
{
    std::map<std::string, double> prime, high;
    for (const SweepResult &result : results) {
        if (result.configLabel == "prime")
            prime[result.benchmark] = result.report.timeMs();
        else if (result.configLabel == "high")
            high[result.benchmark] = result.report.timeMs();
    }
    double sum = 0.0;
    for (const auto &[benchmark, ms] : high)
        sum += prime.at(benchmark) / ms;
    return high.empty() ? 0.0 : sum / double(high.size());
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"points_per_sec", "points/s"},
        {"points_per_sec_nw", "points/s"},
        {"point_ms_p50", "ms"},
        {"point_ms_p99", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

std::ostream *
Gate::why() const
{
    return failed_ < kNamedFailures ? &std::cerr : nullptr;
}

void
Gate::check(const std::vector<SweepResult> &results,
            const std::string &exported)
{
    std::uint64_t bad = countMismatches(results, reference_, why());
    if (firstExport_.empty())
        firstExport_ = exported;
    else if (exported != firstExport_) {
        if (why())
            *why() << "gate: export differs from the first pass's\n";
        bad = results.size();
    }
    attempted_ += results.size();
    failed_ += bad;
}

void
Gate::checkPoints(const std::vector<SweepResult> &results)
{
    attempted_ += results.size();
    failed_ += countMismatches(results, reference_, why());
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * double(values.size()));
    const std::size_t index =
        std::min(values.size() - 1,
                 static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[index];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

RunOutcome
runTimed(const WorkloadSpec &spec, const RunConfig &config)
{
    Workload workload(spec, config.seed);
    // The run's seconds cover everything: set-ups, probes and passes.
    const auto start = std::chrono::steady_clock::now();
    // Each timed step (a set-up or a pass) keeps its seconds and the
    // number of host-speed bursts before it, so that it is scaled by the
    // bursts on either side of it once the run is over.
    struct Step {
        double seconds;
        std::size_t burstsBefore;
    };
    HostSpeed speed;
    // Set-up runs once before the first pass and then at even steps of
    // the run's time, so that its median samples the host's fast and
    // slow states as the passes do. A set-up starts over from fresh inputs
    // and a fresh sweep, and leaves the caches warm again. The last
    // sweep is released first, so that each set-up starts like the
    // first and peak_rss_mb stays one sweep's.
    std::vector<Step> setups;
    double timed = 0.0;
    const auto setUp = [&] {
        workload.release();
        const auto began = std::chrono::steady_clock::now();
        workload.setup();
        setups.push_back({secondsSince(began), speed.bursts()});
        timed += setups.back().seconds;
    };
    setUp();
    Gate gate(workload.reference(config.referenceDir));
    const bool exportsInPass = spec.mode == Mode::Cold;

    // Closed loop: each pass starts when the previous one returned.
    // 1-worker and N-worker passes interleave, each side taking the
    // next pass while it is behind its share of the time, so both
    // sample the whole run. Gate checks and (except for cold-designs)
    // exports stay outside the pass timer.
    // A burst of host-speed probes runs whenever probe time falls below
    // kProbeShare of the timed steps' time. The host's speed drifts from
    // run to run by more than the bounds a change is held to, so every
    // step is scaled to the reference host speed by the bursts next to
    // it.
    std::vector<Step> passes1, passesN;
    // 1-worker host ms of each point (result order), one per pass.
    std::vector<std::vector<double>> passMs;
    double spent1 = 0.0, spentN = 0.0;
    while (passes1.empty() || passesN.empty() ||
           secondsSince(start) < config.seconds) {
        if (speed.seconds() < kProbeShare * timed) {
            speed.burst(kProbeShare * timed);
            continue;
        }
        if (setups.size() < kSetups &&
            secondsSince(start) >= config.seconds * double(setups.size()) /
                                       double(kSetups)) {
            setUp();
            continue;
        }
        const bool single = spent1 * (1.0 - kSingleWorkerShare) <=
                            spentN * kSingleWorkerShare;
        const std::size_t burstsBefore = speed.bursts();
        PassOutput out =
            workload.pass(single ? 1 : config.workers, single);
        (single ? passes1 : passesN).push_back({out.seconds, burstsBefore});
        (single ? spent1 : spentN) += out.seconds;
        timed += out.seconds;
        if (single)
            passMs.push_back(out.hostMs);
        if (!exportsInPass)
            out.exported = exportOf(out.results);
        gate.check(out.results, out.exported);
        // A cold pass's sweep is gone: keep peak_rss_mb one sweep's.
        if (spec.mode == Mode::Cold)
            returnFreedMemory();
    }
    // The last step's burst after it.
    speed.burst(0.0);

    const auto scaled = [&](const Step &step) {
        return step.seconds / speed.slowdownAt(step.burstsBefore);
    };
    // Throughput is points over the summed scaled pass time: the host
    // flips between a fast and a slow state from pass to pass, and a
    // median of per-pass rates jumps between the two where this total
    // moves smoothly.
    const auto rate = [&](const std::vector<Step> &passes) {
        double seconds = 0.0;
        for (const Step &pass : passes)
            seconds += scaled(pass);
        return double(passes.size() * workload.pointsPerPass()) / seconds;
    };
    // A point's host time is the median of its scaled 1-worker samples:
    // its work is the same in every pass, so their spread is host noise.
    // Bursts of lost host time hit a few percent of all samples on a
    // busy host and would set a p99 over samples, so p50 and p99 are
    // taken over the points' medians.
    std::vector<double> typicalMs, rawMs;
    for (std::size_t k = 0; k < workload.pointsPerPass(); ++k) {
        std::vector<double> samples, raw;
        for (std::size_t p = 0; p < passes1.size(); ++p) {
            raw.push_back(passMs[p][k]);
            samples.push_back(passMs[p][k] /
                              speed.slowdownAt(passes1[p].burstsBefore));
        }
        typicalMs.push_back(median(samples));
        rawMs.push_back(median(raw));
    }
    std::vector<double> setupSeconds, rawSetupSeconds;
    for (const Step &setup : setups) {
        setupSeconds.push_back(scaled(setup));
        rawSetupSeconds.push_back(setup.seconds);
    }

    std::cout << "workload " << spec.name << ": seed " << config.seed
              << ", " << workload.pointsPerPass() << " points/pass, "
              << passes1.size() << " passes at 1 worker, "
              << passesN.size() << " at " << config.workers << " workers\n"
              << "  point_ms over " << typicalMs.size()
              << " points, each the median of " << passes1.size()
              << " samples at 1 worker\n"
              << "  failed_frac "
              << double(gate.failed()) / double(gate.attempted()) << " ("
              << gate.failed() << " of " << gate.attempted()
              << " points; exports compared 1 vs " << config.workers
              << " workers)\n"
              << "  host speed: " << speed.probes() << " probes in "
              << speed.bursts() << " bursts, mean " << speed.meanSlowdown()
              << "x the reference probe time\n"
              << "  unscaled: points_per_sec "
              << double(passes1.size() * workload.pointsPerPass()) / spent1
              << ", _nw "
              << double(passesN.size() * workload.pointsPerPass()) / spentN
              << ", point_ms_p50 " << median(rawMs) << ", _p99 "
              << quantile(rawMs, 0.99) << ", setup_s "
              << median(rawSetupSeconds) << "\n";
    if (spec.mode == Mode::Warm) {
        const double speedup = meanHighSpeedup(workload.pass(1, false).results);
        std::cout << "  simulated high-degree mean speed-up " << speedup
                  << "x vs paper " << kPaperSpeedup << "x (model error "
                  << 100.0 * (speedup - kPaperSpeedup) / kPaperSpeedup
                  << "%)\n";
    }

    RunOutcome outcome;
    outcome.attempted = gate.attempted();
    outcome.failed = gate.failed();
    outcome.values = {
        {"setup_s", median(setupSeconds)},
        {"points_per_sec", rate(passes1)},
        {"points_per_sec_nw", rate(passesN)},
        {"point_ms_p50", median(typicalMs)},
        {"point_ms_p99", quantile(typicalMs, 0.99)},
        {"peak_rss_mb", peakRssMb()},
    };
    return outcome;
}

} // namespace perfbench
