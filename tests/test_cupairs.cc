/**
 * @file
 * Tests for multi-CU-pair mappings and capacity-aware compilation.
 */

#include <gtest/gtest.h>

#include "core/api.hh"

namespace lergan {
namespace {

TEST(CuPairs, ControllerManagesAllBanks)
{
    MemoryController ctrl(ReRamParams{}, 3);
    EXPECT_EQ(ctrl.numBanks(), 18);
    const auto switches = ctrl.advance(); // -> TrainDisc
    // Fig. 13a flips 4 banks per pair.
    EXPECT_EQ(switches.size(), 12u);
    for (int pair = 0; pair < 3; ++pair) {
        EXPECT_EQ(ctrl.mode(6 * pair + 0), BankMode::Cmode);
        EXPECT_EQ(ctrl.mode(6 * pair + 1), BankMode::Smode);
        EXPECT_EQ(ctrl.mode(6 * pair + 3), BankMode::Cmode);
    }
}

TEST(CuPairs, CompilerKeepsRolesWithinPairs)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.cuPairs = 2;
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    EXPECT_EQ(compiled.bankUsage.size(), 12u);
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &op : phase.ops) {
            EXPECT_EQ(op.bank % 6, bankForPhase(phase.phase))
                << op.op.label;
            EXPECT_LT(op.bank, 12);
        }
    }
}

TEST(CuPairs, LayerBlocksAreContiguousPerNet)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.cuPairs = 2;
    const CompiledGan compiled =
        compileGan(makeBenchmark("DCGAN"), config);
    // Within one phase, the pair index never decreases with layer index.
    for (const CompiledPhase &phase : compiled.phases) {
        int prev_pair = -1;
        std::size_t prev_layer = 0;
        bool first = true;
        for (const MappedOp &op : phase.ops) {
            const int pair = op.bank / 6;
            if (!first && op.op.layerIdx > prev_layer) {
                EXPECT_GE(pair, prev_pair) << op.op.label;
            }
            if (!first && op.op.layerIdx < prev_layer) {
                EXPECT_LE(pair, prev_pair) << op.op.label;
            }
            prev_pair = pair;
            prev_layer = op.op.layerIdx;
            first = false;
        }
    }
}

TEST(CuPairs, SimulationRunsAcrossPairs)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.cuPairs = 2;
    config.batchSize = 4;
    const TrainingReport report =
        SimulationSession(config).run(makeBenchmark("cGAN"));
    EXPECT_GT(report.iterationTime, 0u);
}

TEST(Capacity, MappingsFitTheMachineBudget)
{
    // The compiler must keep the total mapping within physical capacity
    // (modulo the per-op floor of single copies).
    for (const char *name : {"DCGAN", "3D-GAN", "DiscoGAN-5pairs"}) {
        AcceleratorConfig config =
            AcceleratorConfig::lerGan(ReplicaDegree::High);
        const CompiledGan compiled =
            compileGan(makeBenchmark(name), config);
        const std::uint64_t machine =
            6ull * config.reram.tilesPerBank *
            config.reram.crossbarsPerTile();
        // Reserved (placed) crossbars never exceed capacity; only the
        // single-copy floor may spill into time-sharing.
        std::uint64_t placed = 0;
        for (const auto &bank : compiled.bankUsage)
            for (std::uint64_t used : bank)
                placed += used;
        EXPECT_LE(placed, machine) << name;
    }
}

TEST(Capacity, NoSingleOpOutgrowsABankUnlessIrreducible)
{
    const std::uint64_t bank =
        16ull * ReRamParams{}.crossbarsPerTile();
    AcceleratorConfig config = AcceleratorConfig::lerGan(
        ReplicaDegree::High);
    const CompiledGan compiled =
        compileGan(makeBenchmark("3D-GAN"), config);
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &op : phase.ops) {
            if (op.cost.crossbarsUsed <= bank)
                continue;
            // Oversized ops must already be at single copies.
            if (op.usesZfdr) {
                EXPECT_EQ(op.replicas.inside, 1u) << op.op.label;
                EXPECT_EQ(op.replicas.edge, 1u) << op.op.label;
            } else {
                EXPECT_EQ(op.denseRep, 1u) << op.op.label;
            }
        }
    }
}

} // namespace
} // namespace lergan
