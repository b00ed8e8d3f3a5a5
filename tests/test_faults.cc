/**
 * @file
 * Fault-injection tests: deterministic seed-driven fault maps, wear
 * derived from write densities, allocator rerouting under every fault
 * class, and graceful degradation instead of crashes or silent use of
 * dead hardware.
 */

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hh"
#include "core/sweep.hh"
#include "faults/fault_model.hh"
#include "faults/montecarlo.hh"
#include "faults/wear.hh"
#include "reram/allocator.hh"

namespace lergan {
namespace {

/** A FaultGeometry small enough to reason about by hand. */
FaultGeometry
tinyGeometry()
{
    FaultGeometry geometry;
    geometry.banks = 2;
    geometry.tilesPerBank = 4;
    geometry.crossbarsPerTile = 64;
    return geometry;
}

// ---------------------------------------------------------------------
// Legacy manual-failed-tile behavior (pre-dates the fault subsystem).
// ---------------------------------------------------------------------

TEST(Faults, AllocatorSkipsFailedTiles)
{
    CArrayAllocator alloc(1, 4, 100);
    alloc.markFailed(0, 1);
    alloc.markFailed(0, 2);
    EXPECT_TRUE(alloc.isFailed(0, 1));
    EXPECT_FALSE(alloc.isFailed(0, 0));
    EXPECT_EQ(alloc.freeInBank(0), 200u);

    const Allocation a = alloc.allocate(0, 150, 100, "op");
    EXPECT_EQ(a.reserved(), 150u);
    for (const CrossbarRange &range : a.ranges) {
        EXPECT_NE(range.tile, 1);
        EXPECT_NE(range.tile, 2);
    }
}

TEST(Faults, AllFailedBankOversubscribesOntoPin)
{
    CArrayAllocator alloc(1, 2, 10);
    alloc.markFailed(0, 0);
    alloc.markFailed(0, 1);
    const Allocation a = alloc.allocate(0, 5, 10, "op");
    EXPECT_EQ(a.reserved(), 0u);
    EXPECT_EQ(a.oversubscribed, 5u);
    ASSERT_FALSE(a.tiles().empty());
}

TEST(Faults, CompilerAvoidsFailedTiles)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.failedTiles = {{0, 3}, {3, 0}, {5, 7}};
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    for (const auto &[bank, tile] : config.failedTiles)
        EXPECT_EQ(compiled.bankUsage[bank][tile], 0u);
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &op : phase.ops) {
            for (const CrossbarRange &range : op.allocation.ranges) {
                if (range.count == 0)
                    continue;
                for (const auto &[bank, tile] : config.failedTiles) {
                    EXPECT_FALSE(range.bank == bank && range.tile == tile)
                        << op.op.label;
                }
            }
        }
    }
}

TEST(Faults, SimulationRunsWithFailedTiles)
{
    AcceleratorConfig healthy = AcceleratorConfig::lerGan(
        ReplicaDegree::Low);
    healthy.batchSize = 8;
    AcceleratorConfig degraded = healthy;
    // Kill a quarter of every bank.
    for (int bank = 0; bank < 6; ++bank)
        for (int tile = 0; tile < 4; ++tile)
            degraded.failedTiles.emplace_back(bank, tile);

    const GanModel model = makeBenchmark("cGAN");
    const TrainingReport ok = SimulationSession(healthy).run(model);
    const TrainingReport hurt = SimulationSession(degraded).run(model);
    EXPECT_GT(hurt.iterationTime, 0u);
    // Losing tiles can only slow things down (or tie).
    EXPECT_GE(hurt.iterationTime, ok.iterationTime);
}

TEST(FaultsDeath, MarkingAnOccupiedTilePanics)
{
    CArrayAllocator alloc(1, 2, 10);
    alloc.allocate(0, 5, 10, "op");
    EXPECT_DEATH(alloc.markFailed(0, 0), "already holds");
}

// ---------------------------------------------------------------------
// Allocator capacity accounting (regression: double-marking a tile
// failed must not double-subtract its capacity).
// ---------------------------------------------------------------------

TEST(Faults, MarkFailedTwiceDoesNotDoubleSubtract)
{
    CArrayAllocator alloc(1, 4, 100);
    alloc.markFailed(0, 1);
    EXPECT_EQ(alloc.freeInBank(0), 300u);
    alloc.markFailed(0, 1); // idempotent, not a second subtraction
    EXPECT_EQ(alloc.freeInBank(0), 300u);
    EXPECT_TRUE(alloc.isFailed(0, 1));

    const Allocation a = alloc.allocate(0, 300, 100, "op");
    EXPECT_EQ(a.reserved(), 300u);
    EXPECT_EQ(a.oversubscribed, 0u);
}

TEST(Faults, ReduceCapacityShrinksOneTile)
{
    CArrayAllocator alloc(1, 2, 100);
    alloc.reduceCapacity(0, 0, 30);
    EXPECT_EQ(alloc.capacityOfTile(0, 0), 70u);
    EXPECT_EQ(alloc.freeInBank(0), 170u);

    // The reduced tile only yields its surviving crossbars.
    const Allocation a = alloc.allocate(0, 170, 200, "op");
    EXPECT_EQ(a.reserved(), 170u);
    std::uint64_t on_tile0 = 0;
    for (const CrossbarRange &range : a.ranges)
        if (range.tile == 0)
            on_tile0 += range.count;
    EXPECT_LE(on_tile0, 70u);
}

TEST(Faults, ReduceCapacityBeyondTileClampsToZero)
{
    CArrayAllocator alloc(1, 2, 100);
    alloc.reduceCapacity(0, 1, 1000);
    EXPECT_EQ(alloc.capacityOfTile(0, 1), 0u);
    EXPECT_EQ(alloc.freeInBank(0), 100u);
}

// ---------------------------------------------------------------------
// Fault-map sampling: seed determinism and rate semantics.
// ---------------------------------------------------------------------

FaultConfig
sampleRates()
{
    FaultConfig faults;
    faults.seed = 42;
    faults.cellStuckRate = 0.01;
    faults.columnStuckRate = 0.02;
    faults.tileKillRate = 0.1;
    return faults;
}

TEST(FaultMap, SameSeedIsByteIdentical)
{
    const FaultGeometry geometry = tinyGeometry();
    const FaultConfig faults = sampleRates();
    const std::string once = buildFaultMap(geometry, faults).serialize();
    const std::string again = buildFaultMap(geometry, faults).serialize();
    EXPECT_EQ(once, again);
    EXPECT_FALSE(once.empty());
}

TEST(FaultMap, DistinctSeedsProduceDistinctMaps)
{
    const FaultGeometry geometry = tinyGeometry();
    FaultConfig faults = sampleRates();
    const std::string at42 = buildFaultMap(geometry, faults).serialize();
    faults.seed = 43;
    const std::string at43 = buildFaultMap(geometry, faults).serialize();
    EXPECT_NE(at42, at43);
}

TEST(FaultMap, ZeroRatesSampleNothing)
{
    const FaultMap map = buildFaultMap(tinyGeometry(), FaultConfig{});
    EXPECT_TRUE(map.killedTiles().empty());
    EXPECT_EQ(map.lostCrossbars(), 0u);
}

TEST(FaultMap, KillRateOneKillsEveryTile)
{
    FaultConfig faults;
    faults.tileKillRate = 1.0;
    const FaultGeometry geometry = tinyGeometry();
    const FaultMap map = buildFaultMap(geometry, faults);
    EXPECT_EQ(static_cast<int>(map.killedTiles().size()),
              geometry.banks * geometry.tilesPerBank);
    EXPECT_EQ(map.lostCrossbars(), map.totalCrossbars());
}

TEST(FaultMath, BinomialTailMatchesClosedForm)
{
    // P[Binom(n, p) > 0] = 1 - (1-p)^n.
    EXPECT_NEAR(binomialTailAbove(10, 0.1, 0),
                1.0 - std::pow(0.9, 10), 1e-12);
    EXPECT_DOUBLE_EQ(binomialTailAbove(5, 0.0, 0), 0.0);
    EXPECT_DOUBLE_EQ(binomialTailAbove(5, 1.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(binomialTailAbove(5, 0.3, 5), 0.0);
}

TEST(FaultMath, SampleBinomialIsDeterministicAndBounded)
{
    for (std::uint64_t n : {1ull, 64ull, 1000ull, 100000ull}) {
        Rng a(7), b(7);
        const std::uint64_t first = sampleBinomial(a, n, 0.25);
        EXPECT_EQ(first, sampleBinomial(b, n, 0.25));
        EXPECT_LE(first, n);
    }
}

// ---------------------------------------------------------------------
// Wear: write densities feed the wear map; duplication degree feeds
// write densities.
// ---------------------------------------------------------------------

double
totalWrites(const WearInputs &inputs)
{
    double total = 0.0;
    for (const auto &bank : inputs.writesPerIteration)
        for (double writes : bank)
            total += writes;
    return total;
}

TEST(Wear, WriteDensityMonotoneInDuplicationDegree)
{
    const GanModel model = makeBenchmark("DCGAN");
    double previous = 0.0;
    for (ReplicaDegree degree : {ReplicaDegree::Low, ReplicaDegree::Middle,
                                 ReplicaDegree::High}) {
        const AcceleratorConfig config = AcceleratorConfig::lerGan(degree);
        const CompiledGan compiled = compileGan(model, config);
        const double writes =
            totalWrites(compiledWriteDensities(compiled, config));
        EXPECT_GT(writes, 0.0);
        // More replicas = more stored copies rewritten per update.
        EXPECT_GE(writes, previous);
        previous = writes;
    }
}

TEST(Wear, WearMapScalesWithPriorIterations)
{
    WearInputs inputs;
    inputs.cellsPerTile = 1000;
    inputs.writesPerIteration = {{500.0, 0.0}};
    const WearMap once = computeWearMap(inputs, 1.0, 10.0);
    const WearMap tenfold = computeWearMap(inputs, 10.0, 10.0);
    EXPECT_DOUBLE_EQ(once[0][0], 0.05);
    EXPECT_DOUBLE_EQ(tenfold[0][0], 0.5);
    EXPECT_DOUBLE_EQ(once[0][1], 0.0);
}

TEST(Wear, ApplyWearKillsOnlyWornOutTiles)
{
    FaultMap map = buildFaultMap(tinyGeometry(), FaultConfig{});
    WearMap wear(2, std::vector<double>(4, 0.25));
    wear[1][2] = 1.0; // exactly one full lifetime
    applyWear(map, wear);
    EXPECT_EQ(map.killedTiles(),
              (std::vector<std::pair<int, int>>{{1, 2}}));
    EXPECT_DOUBLE_EQ(map.tiles[0][0].wear, 0.25);
}

TEST(Wear, CompileDerivesWearFromWriteDensities)
{
    // Predict from the public adapter which tiles a given prior-
    // iteration count wears out; the compiler's internal derivation
    // must agree exactly.
    const GanModel model = makeBenchmark("DCGAN");
    const AcceleratorConfig healthy =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    const CompiledGan reference = compileGan(model, healthy);
    const WearInputs densities =
        compiledWriteDensities(reference, healthy);

    const double endurance = 1e10;
    const WearMap unit = computeWearMap(densities, 1.0, endurance);
    double max_wear = 0.0;
    for (const auto &bank : unit)
        for (double wear : bank)
            max_wear = std::max(max_wear, wear);
    ASSERT_GT(max_wear, 0.0);

    // Push the hottest tiles just past one lifetime.
    const double prior = 1.0001 / max_wear;
    std::set<std::pair<int, int>> predicted;
    std::vector<int> killed_per_bank(unit.size(), 0);
    for (std::size_t bank = 0; bank < unit.size(); ++bank) {
        for (std::size_t tile = 0; tile < unit[bank].size(); ++tile) {
            if (unit[bank][tile] * prior >= 1.0) {
                predicted.insert({(int)bank, (int)tile});
                ++killed_per_bank[bank];
            }
        }
    }
    ASSERT_FALSE(predicted.empty());

    AcceleratorConfig worn = healthy;
    worn.faults.priorIterations = prior;
    worn.faults.cellEndurance = endurance;
    bool some_bank_dead = false;
    for (std::size_t bank = 0; bank < unit.size(); ++bank)
        some_bank_dead = some_bank_dead ||
                         killed_per_bank[bank] ==
                             static_cast<int>(unit[bank].size());
    if (some_bank_dead) {
        EXPECT_THROW(compileGan(model, worn), std::invalid_argument);
        return;
    }
    const CompiledGan degraded = compileGan(model, worn);
    EXPECT_TRUE(degraded.faultImpact.active);
    const std::set<std::pair<int, int>> actual(
        degraded.faultImpact.unusableTiles.begin(),
        degraded.faultImpact.unusableTiles.end());
    EXPECT_EQ(actual, predicted);
    for (const auto &[bank, tile] : predicted)
        EXPECT_EQ(degraded.bankUsage[bank][tile], 0u);
}

// ---------------------------------------------------------------------
// Rerouting under every fault class, end to end through compileGan.
// ---------------------------------------------------------------------

/** No allocation touches an unusable tile; usage there is zero. */
void
expectRoutedAround(const CompiledGan &compiled)
{
    ASSERT_TRUE(compiled.faultImpact.active);
    const std::set<std::pair<int, int>> unusable(
        compiled.faultImpact.unusableTiles.begin(),
        compiled.faultImpact.unusableTiles.end());
    for (const auto &[bank, tile] : unusable)
        EXPECT_EQ(compiled.bankUsage[bank][tile], 0u);
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &op : phase.ops) {
            for (const CrossbarRange &range : op.allocation.ranges) {
                if (range.count > 0) {
                    EXPECT_FALSE(unusable.count({range.bank, range.tile}))
                        << op.op.label << " on killed tile " << range.bank
                        << "." << range.tile;
                }
            }
        }
    }
}

TEST(FaultClasses, StuckCellsDisableCrossbars)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.faults.seed = 7;
    // Right at the tolerance: each crossbar dies with probability ~1/2,
    // well under the (raised) dead-crossbar kill threshold.
    config.faults.cellStuckRate = config.faults.cellTolerance;
    config.faults.tileDeadCrossbarTolerance = 0.95;
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    EXPECT_TRUE(compiled.faultImpact.active);
    EXPECT_GT(compiled.faultImpact.deadCrossbars, 0u);
    EXPECT_GT(compiled.faultImpact.capacityLostFraction, 0.0);
    expectRoutedAround(compiled);
}

TEST(FaultClasses, StuckColumnsDisableCrossbars)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.faults.seed = 7;
    config.faults.columnStuckRate = config.faults.columnTolerance;
    config.faults.tileDeadCrossbarTolerance = 0.95;
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    EXPECT_TRUE(compiled.faultImpact.active);
    EXPECT_GT(compiled.faultImpact.deadCrossbars, 0u);
    expectRoutedAround(compiled);
}

TEST(FaultClasses, TileKillsRerouteAllocations)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.faults.seed = 11;
    config.faults.tileKillRate = 0.15;
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    EXPECT_GT(compiled.faultImpact.killedTiles, 0u);
    EXPECT_GT(compiled.faultImpact.remappedCrossbars, 0u);
    expectRoutedAround(compiled);
}

TEST(FaultClasses, ManualFailedTilesMergeIntoTheFaultMap)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.faults.seed = 11;
    config.faults.tileKillRate = 0.05;
    config.failedTiles = {{2, 5}};
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    const std::set<std::pair<int, int>> unusable(
        compiled.faultImpact.unusableTiles.begin(),
        compiled.faultImpact.unusableTiles.end());
    EXPECT_TRUE(unusable.count({2, 5}));
    expectRoutedAround(compiled);
}

// ---------------------------------------------------------------------
// Graceful failure: a fully dead bank is a user-visible error, never a
// crash, and never aborts the surrounding sweep.
// ---------------------------------------------------------------------

TEST(Faults, FullyDeadBankThrowsInvalidArgument)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.faults.tileKillRate = 1.0;
    EXPECT_THROW(compileGan(makeBenchmark("DCGAN"), config),
                 std::invalid_argument);
    EXPECT_THROW(SimulationSession(config).run(makeBenchmark("DCGAN")),
                 std::invalid_argument);
}

TEST(Faults, DeadBankFailsItsSweepPointOnly)
{
    AcceleratorConfig healthy = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    AcceleratorConfig dead = healthy;
    dead.faults.tileKillRate = 1.0;

    ExperimentSweep sweep;
    sweep.addBenchmark(makeBenchmark("DCGAN"))
        .addConfig("healthy", healthy)
        .addConfig("dead", dead);
    const std::vector<SweepResult> results = sweep.run(1);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_NE(results[1].error.find("bank"), std::string::npos);
}

// ---------------------------------------------------------------------
// Session builder, audit integration and cache keying.
// ---------------------------------------------------------------------

TEST(Faults, SessionWithFaultsProducesAuditedDegradedRun)
{
    FaultConfig faults;
    faults.seed = 3;
    faults.tileKillRate = 0.1;
    SimulationSession session(
        AcceleratorConfig::lerGan(ReplicaDegree::Low));
    session.withFaults(faults);

    TrainingReport report;
    const AuditVerdict verdict =
        session.audit(makeBenchmark("DCGAN"), 1, &report);
    EXPECT_TRUE(verdict.ok()) << verdict.summary();
    // All five checks run on a degraded traced run.
    EXPECT_EQ(verdict.checksRun, 5u);
    EXPECT_GT(report.stats.get("fault.killed_tiles"), 0.0);
    EXPECT_GT(report.stats.get("fault.capacity_lost_frac"), 0.0);
}

TEST(Faults, ZeroRateFaultConfigIsInert)
{
    SimulationSession session(
        AcceleratorConfig::lerGan(ReplicaDegree::Low));
    session.withFaults(FaultConfig{}); // all rates zero
    const TrainingReport report = session.run(makeBenchmark("DCGAN"));
    EXPECT_FALSE(report.stats.has("fault.killed_tiles"));
    EXPECT_FALSE(report.stats.has("fault.capacity_lost_frac"));
}

TEST(Faults, InvalidFaultConfigIsAUserError)
{
    FaultConfig faults;
    faults.tileKillRate = -0.5;
    EXPECT_THROW(faults.checkUsable(), std::invalid_argument);
    faults.tileKillRate = 1.5;
    EXPECT_THROW(faults.checkUsable(), std::invalid_argument);
    faults = FaultConfig{};
    faults.cellEndurance = 0.0;
    EXPECT_THROW(faults.checkUsable(), std::invalid_argument);
}

TEST(Faults, DistinctSeedsAreDistinctCacheKeys)
{
    FaultConfig faults;
    faults.seed = 1;
    faults.tileKillRate = 0.1;
    SimulationSession session(
        AcceleratorConfig::lerGan(ReplicaDegree::Low));
    session.withFaults(faults);
    const GanModel model = makeBenchmark("DCGAN");
    session.run(model);
    EXPECT_EQ(session.cacheMisses(), 1u);
    session.run(model); // same seed: cache hit
    EXPECT_EQ(session.cacheHits(), 1u);

    faults.seed = 2;
    session.withFaults(faults);
    session.run(model); // different fault map: must recompile
    EXPECT_EQ(session.cacheMisses(), 2u);
}

TEST(MonteCarlo, RecorderTracesEveryTrialPoint)
{
    const auto spans = [](int threads) {
        AcceleratorConfig low = AcceleratorConfig::lerGan(ReplicaDegree::Low);
        AcceleratorConfig prime = AcceleratorConfig::prime();
        low.faults.tileKillRate = prime.faults.tileKillRate = 0.02;
        FaultMonteCarlo experiment;
        experiment.addBenchmark(makeBenchmark("MAGAN-MNIST"))
            .addConfig("lergan-low", low)
            .addConfig("prime", prime);
        MonteCarloOptions options;
        options.trials = 2;
        options.threads = threads;
        options.recorder = std::make_shared<FlightRecorder>();
        experiment.run(options);
        // The deterministic shape of the log: ids, links and names.
        std::vector<std::tuple<TraceId, SpanId, SpanId, std::string>> ids;
        for (const SpanEvent &event : options.recorder->collect())
            ids.emplace_back(event.trace, event.span, event.parent,
                             event.name);
        return ids;
    };
    const auto serial = spans(1);
    std::vector<TraceId> roots;
    for (const auto &[trace, span, parent, name] : serial) {
        if (parent != 0)
            continue;
        EXPECT_EQ(name, "point");
        roots.push_back(trace);
    }
    // One root per trial point: 2 configs x 2 trials.
    EXPECT_EQ(roots, (std::vector<TraceId>{1, 2, 3, 4}));
    EXPECT_EQ(serial, spans(4));
}

TEST(MonteCarlo, TrialSeedsAreDistinct)
{
    std::set<std::uint64_t> seeds;
    for (std::size_t point = 0; point < 4; ++point)
        for (int trial = 0; trial < 32; ++trial)
            seeds.insert(monteCarloTrialSeed(9, point, trial));
    EXPECT_EQ(seeds.size(), 4u * 32u);
}

} // namespace
} // namespace lergan
