/**
 * @file
 * The benchmark's own tests.
 *
 *   perfbench_selftest <reference-dir> <BENCHMARK.json>
 *
 * - the same seed gives the same DSL list, and every generated design
 *   parses;
 * - every metric and workload name matches [A-Za-z0-9_.-]+, and the
 *   names in BENCHMARK.json are exactly the ones the benchmark reports;
 * - the correctness gate passes on the committed reference and fails
 *   on a perturbed one;
 * - the host-speed probe does the same work on every call.
 */

#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "hostspeed.hh"
#include "measure.hh"

namespace {

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

bool
sameDesigns(const std::vector<Design> &a, const std::vector<Design> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].generator != b[i].generator ||
            a[i].discriminator != b[i].discriminator ||
            a[i].itemSize != b[i].itemSize ||
            a[i].spatialDims != b[i].spatialDims)
            return false;
    }
    return true;
}

void
testGenerator()
{
    expect(sameDesigns(generateDesigns(7, kColdDesigns),
                       generateDesigns(7, kColdDesigns)),
           "same seed gives the same DSL list");
    expect(!sameDesigns(generateDesigns(7, kColdDesigns),
                        generateDesigns(8, kColdDesigns)),
           "another seed gives another DSL list");
    // A DSL string the parser rejects aborts the process, so reaching
    // the line below means every design parsed.
    std::set<int> items, dims;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        for (const Design &design : generateDesigns(seed, kColdDesigns)) {
            parseDesign(design);
            items.insert(design.itemSize);
            dims.insert(design.spatialDims);
        }
    }
    expect(*items.begin() == 16 && *items.rbegin() == 128 &&
               dims.size() == 2,
           "200 seeds of designs parse, items 16..128, 2D and 3D");
}

void
testNames(const std::string &benchmark_json)
{
    const std::regex valid("[A-Za-z0-9_.-]+");
    std::set<std::string> workloadNames, metricUnits;
    bool allValid = true;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *defs) {
            allValid = allValid && std::regex_match(def.name, valid);
            metricUnits.insert(std::string(def.name) + " " + def.unit);
        }
    }
    for (const WorkloadSpec &spec : workloads()) {
        allValid = allValid && std::regex_match(spec.name, valid);
        workloadNames.insert(spec.name);
    }
    expect(allValid, "every metric and workload name is [A-Za-z0-9_.-]+");

    std::ifstream in(benchmark_json);
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    const auto matches = [&](const char *pattern, const char *join) {
        const std::regex re(pattern);
        std::set<std::string> found;
        for (auto it = std::sregex_iterator(body.begin(), body.end(), re);
             it != std::sregex_iterator(); ++it) {
            found.insert((*it)[1].str() +
                         (it->size() > 2 ? join + (*it)[2].str() : ""));
        }
        return found;
    };
    expect(!body.empty() &&
               matches("\"name\": *\"([^\"]+)\", *\"why\"", "") ==
                   workloadNames,
           "BENCHMARK.json workloads are the benchmark's");
    expect(matches("\"name\": *\"([^\"]+)\", *\"unit\": *\"([^\"]+)\"",
                   " ") == metricUnits,
           "BENCHMARK.json metric names and units are the benchmark's");
}

void
testGate(const std::string &reference_dir)
{
    Workload workload(*findWorkload("fig19-warm"), 1);
    workload.setup();
    const Reference reference = workload.reference(reference_dir);
    std::vector<lergan::SweepResult> results =
        workload.pass(1, false).results;
    expect(countMismatches(results, reference) == 0,
           "the Fig. 19 grid matches the committed reference");

    Reference slower = reference;
    slower.begin()->second.iterationPs += 1;
    expect(countMismatches(results, slower) == 1,
           "a makespan perturbed by 1 ps fails one point");

    Reference costlier = reference;
    auto &energies = costlier.rbegin()->second.energies;
    energies.begin()->second *= 1.0 + 1e-6;
    expect(countMismatches(results, costlier) == 1,
           "an energy perturbed by 1e-6 fails one point");

    Gate gate(reference);
    const std::string exported = exportOf(results);
    gate.check(results, exported);
    gate.check(results, exported + " ");
    expect(gate.failed() == results.size() &&
               gate.attempted() == 2 * results.size(),
           "an export that differs by one byte fails its whole pass");
}

void
testHostSpeed()
{
    HostSpeed speed;
    const std::uint64_t first = speed.probe();
    expect(speed.probe() == first && HostSpeed().probe() == first &&
               speed.probes() == 2 && speed.meanSlowdown() > 0.0,
           "the host-speed probe does the same work on every call");
    speed.burst(0.0);
    speed.burst(0.0);
    expect(speed.probes() == 4 && speed.bursts() == 2 &&
               speed.slowdownAt(0) > 0.0 && speed.slowdownAt(2) > 0.0,
           "a burst probes at least once; every step gets a slowdown");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: perfbench_selftest <reference-dir> "
                     "<BENCHMARK.json>\n";
        return 2;
    }
    testGenerator();
    testNames(argv[2]);
    testGate(argv[1]);
    testHostSpeed();
    std::cout << (failures ? "selftest FAILED\n" : "selftest passed\n");
    return failures ? 1 : 0;
}
