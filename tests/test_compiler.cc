/**
 * @file
 * Tests for the LerGAN compiler: placement, replica policy application,
 * normalized-space fitting and the compile-time model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/compiler.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

TEST(Compiler, BankRolesFollowFig13)
{
    EXPECT_EQ(bankForPhase(Phase::GFwd), 0);
    EXPECT_EQ(bankForPhase(Phase::GBwdWeight), 1);
    EXPECT_EQ(bankForPhase(Phase::GBwdErr), 2);
    EXPECT_EQ(bankForPhase(Phase::DFwd), 3);
    EXPECT_EQ(bankForPhase(Phase::DBwdWeight), 4);
    EXPECT_EQ(bankForPhase(Phase::DBwdErr), 5);
}

TEST(Compiler, AllPhasesCompiled)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan compiled =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    EXPECT_EQ(compiled.phases.size(), 6u);
    for (Phase phase : kAllPhases) {
        const CompiledPhase &cp = compiled.phase(phase);
        EXPECT_FALSE(cp.ops.empty());
        for (const MappedOp &op : cp.ops) {
            EXPECT_EQ(op.bank, bankForPhase(phase));
            EXPECT_GE(op.tiles.size(), 1u);
            EXPECT_LE(op.tiles.size(), 16u);
            EXPECT_GT(op.cost.waves, 0u) << op.op.label;
        }
    }
}

TEST(Compiler, ZfdrConfigUsesZfdrOnSparseOpsOnly)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan compiled =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &op : phase.ops)
            EXPECT_EQ(op.usesZfdr, op.op.zfdrApplicable()) << op.op.label;
    }
}

TEST(Compiler, NormalConfigNeverUsesZfdr)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan compiled =
        compileGan(model, AcceleratorConfig::prime());
    for (const CompiledPhase &phase : compiled.phases)
        for (const MappedOp &op : phase.ops)
            EXPECT_FALSE(op.usesZfdr);
}

TEST(Compiler, WeightPhasesMarkPerItemWrites)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan compiled =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    for (const MappedOp &op : compiled.phase(Phase::DBwdWeight).ops) {
        if (op.op.pattern != OpPattern::DenseFc) {
            EXPECT_TRUE(op.perItemWrite) << op.op.label;
        }
    }
    for (const MappedOp &op : compiled.phase(Phase::DFwd).ops)
        EXPECT_FALSE(op.perItemWrite) << op.op.label;
}

TEST(Compiler, HigherDegreeUsesMoreSpaceAndFewerWaves)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan low =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const CompiledGan high =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::High));
    EXPECT_GT(high.crossbarsUsed, low.crossbarsUsed);
    // Waves never increase with more duplication.
    for (std::size_t p = 0; p < low.phases.size(); ++p) {
        for (std::size_t i = 0; i < low.phases[p].ops.size(); ++i) {
            EXPECT_LE(high.phases[p].ops[i].cost.waves,
                      low.phases[p].ops[i].cost.waves);
        }
    }
}

TEST(Compiler, ZfdrSavesInputTraffic)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan zfdr =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const CompiledGan normal =
        compileGan(model, AcceleratorConfig::prime());
    for (std::size_t p = 0; p < zfdr.phases.size(); ++p) {
        for (std::size_t i = 0; i < zfdr.phases[p].ops.size(); ++i) {
            EXPECT_LE(zfdr.phases[p].ops[i].cost.inputElems,
                      normal.phases[p].ops[i].cost.inputElems);
        }
    }
}

TEST(Compiler, NormalizedSpaceRespectsBudget)
{
    const GanModel model = makeBenchmark("DCGAN");
    AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::High);
    const CompiledGan unconstrained = compileGan(model, config);

    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = unconstrained.crossbarsUsed / 4;
    const CompiledGan fitted = compileGan(model, config);
    EXPECT_LT(fitted.crossbarsUsed, unconstrained.crossbarsUsed);
    // Within ~2x of the budget (integer floors stop exact fitting).
    EXPECT_LE(fitted.crossbarsUsed, config.spaceBudgetCrossbars * 2);
}

TEST(Compiler, NormalizedSpaceGrowsIntoSurplus)
{
    const GanModel model = makeBenchmark("cGAN");
    AcceleratorConfig config = AcceleratorConfig::prime();
    const CompiledGan base = compileGan(model, config);

    config.normalizedSpace = true;
    config.spaceBudgetCrossbars = base.crossbarsUsed * 8;
    const CompiledGan grown = compileGan(model, config);
    EXPECT_GT(grown.crossbarsUsed, base.crossbarsUsed);
    EXPECT_LE(grown.crossbarsUsed, config.spaceBudgetCrossbars);
}

TEST(Compiler, UpdateVolumesCoverBothKernelCopies)
{
    const GanModel model = makeBenchmark("DCGAN");
    const CompiledGan compiled =
        compileGan(model, AcceleratorConfig::lerGan(ReplicaDegree::Low));
    std::uint64_t d_kernels = 0;
    for (Phase phase : {Phase::DFwd, Phase::DBwdErr})
        for (const MappedOp &op : compiled.phase(phase).ops)
            d_kernels += op.cost.weightElems;
    EXPECT_EQ(compiled.updateElemsD, d_kernels);
    EXPECT_GT(compiled.updateElemsG, 0u);
}

TEST(Compiler, CompileTimeOverheadNearPaper)
{
    // Sec. VI-E: ZFDR/ZFDM adds 32.52% compile time on average.
    double overhead_sum = 0;
    int n = 0;
    for (const GanModel &model : allBenchmarks()) {
        const CompiledGan compiled = compileGan(
            model, AcceleratorConfig::lerGan(ReplicaDegree::Middle));
        EXPECT_GT(compiled.compileMs, compiled.compileMsTraditional);
        overhead_sum += compiled.compileMs / compiled.compileMsTraditional -
                        1.0;
        ++n;
    }
    EXPECT_NEAR(overhead_sum / n, 0.3252, 0.15);
}

TEST(Compiler, TilePlacementStaysInBank)
{
    for (const char *name : {"DCGAN", "3D-GAN", "MAGAN-MNIST"}) {
        const CompiledGan compiled =
            compileGan(makeBenchmark(name),
                       AcceleratorConfig::lerGan(ReplicaDegree::High));
        for (const CompiledPhase &phase : compiled.phases) {
            for (const MappedOp &op : phase.ops) {
                for (int tile : op.tiles) {
                    EXPECT_GE(tile, 0);
                    EXPECT_LT(tile, 16);
                }
            }
        }
    }
}

TEST(Compiler, TileListKeepsFirstUseOrder)
{
    // A faulty machine makes placement skip tiles, and 3D-GAN
    // oversubscribes its banks; the resolved tile list must still be
    // the ranges' tiles in first-use order (its front is where the op's
    // transfers start).
    AcceleratorConfig faulty = AcceleratorConfig::lerGan(ReplicaDegree::High);
    faulty.failedTiles = {{0, 1}, {3, 0}, {3, 2}};
    for (const char *name : {"DCGAN", "3D-GAN"}) {
        const CompiledGan compiled = compileGan(makeBenchmark(name), faulty);
        for (const CompiledPhase &phase : compiled.phases) {
            for (const MappedOp &op : phase.ops) {
                std::vector<int> first_use;
                for (const CrossbarRange &range : op.allocation.ranges)
                    if (std::find(first_use.begin(), first_use.end(),
                                  range.tile) == first_use.end())
                        first_use.push_back(range.tile);
                ASSERT_FALSE(op.tiles.empty()) << op.op.label;
                EXPECT_EQ(op.tiles, first_use) << op.op.label;
            }
        }
    }
}

} // namespace
} // namespace lergan
