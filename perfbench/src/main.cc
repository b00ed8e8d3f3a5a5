/**
 * @file
 * lergan_perfbench: one workload, one run.
 *
 *   lergan_perfbench --workload fig19-warm --seed 1 --seconds 35 --trace 0
 *
 * Prints a human-readable summary, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
 * when the correctness gate fails, 2 on bad arguments.
 *
 *   lergan_perfbench --write-reference perfbench/reference/fig19.tsv
 *
 * regenerates the Fig. 19 reference after an intentional change to the
 * simulated numbers.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "measure.hh"

namespace {

using namespace perfbench;

int
usage(const std::string &problem)
{
    std::cerr << "lergan_perfbench: " << problem << "\n"
              << "usage: lergan_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "         [--reference-dir DIR] [--out-dir DIR]\n"
                 "       lergan_perfbench --write-reference FILE\n"
                 "workloads:";
    for (const WorkloadSpec &spec : workloads())
        std::cerr << " " << spec.name;
    std::cerr << "\n";
    return 2;
}

void
printResult(const RunOutcome &outcome, const std::vector<MetricDef> &defs)
{
    std::cout << "  metric                              value  unit\n";
    for (const MetricDef &def : defs) {
        std::printf("  %-32s %12.6g  %s\n", def.name,
                    outcome.values.at(def.name), def.unit);
    }
    std::cout << "{\"correct\": "
              << (outcome.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted
              << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::snprintf(value, sizeof value, "%.17g",
                      outcome.values.at(defs[i].name));
        std::cout << (i ? ", " : "") << "\"" << defs[i].name
                  << "\": {\"value\": " << value << ", \"unit\": \""
                  << defs[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/** Simulate the Fig. 19 grid once and write its reference digests. */
int
writeFig19Reference(const std::string &path)
{
    Workload workload(*findWorkload("fig19-warm"), 1);
    workload.setup();
    Reference reference;
    for (const lergan::SweepResult &result : workload.pass(1, false).results) {
        if (result.failed)
            throw std::runtime_error("point " + result.benchmark + "/" +
                                     result.configLabel + " failed: " +
                                     result.error);
        reference[keyOf(result.benchmark, result.configLabel)] =
            digestOf(result);
    }
    writeReference(path, reference);
    std::cout << "wrote " << reference.size() << " points to " << path
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, writeRef;
    long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtol(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (flag == "--reference-dir") {
            config.referenceDir = value;
        } else if (flag == "--out-dir") {
            config.outDir = value;
        } else if (flag == "--write-reference") {
            writeRef = value;
        } else {
            return usage("unknown option " + flag);
        }
        if (end && *end != '\0')
            return usage("malformed value '" + value + "' for " + flag);
    }

    try {
        if (!writeRef.empty())
            return writeFig19Reference(writeRef);
        const WorkloadSpec *spec = findWorkload(workload);
        if (!spec)
            return usage("unknown workload '" + workload + "'");
        if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
            return usage("need --seed >= 0, --seconds > 0, --trace 0|1");
        config.seed = static_cast<std::uint64_t>(seed);
        config.seconds = seconds;
        config.workers = static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
        const RunOutcome outcome = trace ? runTraced(*spec, config)
                                         : runTimed(*spec, config);
        printResult(outcome, trace ? perLayerMetrics() : endToEndMetrics());
        return outcome.failed == 0 ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "lergan_perfbench: " << error.what() << "\n";
        return 1;
    }
}
