/**
 * @file
 * Tests for the ZFDR reshape analysis, the paper's closed-form counts,
 * the replica policy and the op cost model.
 */

#include <gtest/gtest.h>

#include <string>

#include "nn/zero_analysis.hh"
#include "workloads/zoo.hh"
#include "zfdr/cost.hh"
#include "zfdr/formulas.hh"
#include "zfdr/replica.hh"
#include "zfdr/reshape.hh"

namespace lergan {
namespace {

LayerOp
findOp(const GanModel &model, Phase phase, const std::string &layer_name)
{
    for (const LayerOp &op : opsForPhase(model, phase)) {
        const auto &net = model.net(op.role);
        if (net[op.layerIdx].name == layer_name)
            return op;
    }
    ADD_FAILURE() << "no op for " << layer_name;
    return LayerOp{};
}

LayerOp
conv1Op()
{
    return findOp(makeBenchmark("DCGAN"), Phase::GFwd, "G.l2.tconv");
}

TEST(Formulas, Conv1LoopLength)
{
    // CONV1: I=4, S'=2, P=2 >= S'-1 -> LL = 4*2 + 1 = 9 (Eq. 11).
    EXPECT_EQ(loopLength(4, 2, 2, 1), 9);
}

TEST(Formulas, LoopLengthCases)
{
    // Case 2 of Eq. 11: P < S'-1 but P+R >= S'-1.
    EXPECT_EQ(loopLength(4, 3, 1, 1), 12);
    // Case 3: P < S'-1 and P+R < S'-1.
    EXPECT_EQ(loopLength(4, 3, 0, 1), 10);
    // Stride 1: LL = I.
    EXPECT_EQ(loopLength(8, 1, 2, 0), 8);
}

TEST(Formulas, Conv1EdgeRemainders)
{
    // Eq. 12: P=2 >= S'-1=1 -> R1 = P - (S'-1) = 1.
    EXPECT_EQ(edgeR1(2, 2), 1);
    // Eq. 13: P+R=3 >= 1 -> R2 = 3 - 1 = 2.
    EXPECT_EQ(edgeR2(2, 1, 2), 2);
}

TEST(Formulas, Conv1ClassCounts)
{
    // The paper's worked example: 25 reshaped matrices = 9 corner +
    // 12 edge + 4 inside (with the R2 erratum corrected).
    const ClassCounts counts = tconvClassCounts(4, 2, 2, 1, 5, 2);
    EXPECT_EQ(counts.corner, 9u);
    EXPECT_EQ(counts.edge, 12u);
    EXPECT_EQ(counts.inside, 4u);
    // R1 + R2 equals the 1-D edge-mask count used by the closed form.
    EXPECT_EQ(edgeR1(2, 2) + edgeR2(2, 1, 2),
              tconvMasks1d(4, 2, 2, 1, 5).edge);
}

TEST(Formulas, TconvClassCountsMatchEnumerationSweep)
{
    // The closed form against enumeration over every sparse-grid
    // geometry in a box: data I, insert stride S', remainder R < S',
    // window W and pad P — including pads below S'-1 (boundary windows
    // whose masks repeat interior ones), pads wider than the window
    // (empty windows) and windows narrower than S'. Counts compose per
    // dimension, so 2-D and 3-D cover a smaller box.
    LayerOp op;
    op.pattern = OpPattern::SparseGridConv;
    std::size_t cases = 0;
    std::size_t mismatches = 0;
    std::string first;
    for (int dims = 1; dims <= 3; ++dims) {
        const int max_data = dims == 1 ? 9 : 4;
        const int max_stride = dims == 1 ? 5 : 3;
        for (int data = 1; data <= max_data; ++data)
        for (int stride = 1; stride <= max_stride; ++stride)
        for (int rem = 0; rem < stride; ++rem)
        for (int window = 1; window <= 2 * stride + 4; ++window)
        for (int pad = 0; pad <= window + 2; ++pad) {
            if (2 * pad + (data - 1) * stride + 1 + rem < window)
                continue; // window wider than the grid
            op.data = data;
            op.stride = stride;
            op.padLo = op.padHi = pad;
            op.rem = rem;
            op.window = window;
            op.spatialDims = dims;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            const ClassCounts counts =
                tconvClassCounts(data, stride, pad, rem, window, dims);
            ++cases;
            if (analysis.corner.matrices == counts.corner &&
                analysis.edge.matrices == counts.edge &&
                analysis.inside.matrices == counts.inside) {
                continue;
            }
            if (mismatches++ == 0) {
                first = "I=" + std::to_string(data) +
                        " S'=" + std::to_string(stride) +
                        " P=" + std::to_string(pad) +
                        " R=" + std::to_string(rem) +
                        " W=" + std::to_string(window) +
                        " d=" + std::to_string(dims) + ": enumerated " +
                        std::to_string(analysis.corner.matrices) + "/" +
                        std::to_string(analysis.edge.matrices) + "/" +
                        std::to_string(analysis.inside.matrices) +
                        ", closed form " + std::to_string(counts.corner) +
                        "/" + std::to_string(counts.edge) + "/" +
                        std::to_string(counts.inside);
            }
        }
    }
    EXPECT_GT(cases, 10000u);
    EXPECT_EQ(mismatches, 0u) << "of " << cases << "; first: " << first;
}

/** A 1-D W-CONV-S op: O taps of stride S over I data cells padded P. */
LayerOp
wconvOp(int data, int pad, int out, int stride, int rem)
{
    LayerOp op;
    op.pattern = OpPattern::SparseKernelConv;
    op.data = data;
    op.padLo = op.padHi = pad;
    op.window = out;
    op.stride = stride;
    op.rem = rem;
    op.spatialDims = 1;
    return op;
}

TEST(Formulas, WconvClassCountsPastSamePaddingAndOneInput)
{
    // Regressions: forward K=3, S=2, P=2 over I=5 (O=4) has three
    // distinct clipped masks and no full one, more pad than "same"
    // padding; a one-element input (K=3, S=1, P=1, O=1) has one empty
    // and one full mask.
    for (const LayerOp &op :
         {wconvOp(5, 2, 4, 2, 0), wconvOp(1, 1, 1, 1, 0)}) {
        const ReshapeAnalysis analysis = analyzeReshape(op);
        const ClassCounts counts = wconvClassCounts(
            op.data, op.padLo, op.window, op.stride, op.rem, 1);
        EXPECT_EQ(counts.edge, analysis.edge.matrices) << "I=" << op.data;
        EXPECT_EQ(counts.inside, analysis.inside.matrices)
            << "I=" << op.data;
    }
    EXPECT_EQ(analyzeReshape(wconvOp(5, 2, 4, 2, 0)).edge.matrices, 3u);
    EXPECT_EQ(analyzeReshape(wconvOp(1, 1, 1, 1, 0)).inside.matrices, 1u);
}

TEST(Formulas, WconvClassCountsMatchEnumerationSweep)
{
    // The closed form against enumeration over every W-CONV-S geometry
    // in a box: data I, O taps of stride S, remainder R < S and pad P —
    // including pads past "same" padding (windows clipped at both ends,
    // or wholly in a pad), data narrower than the tap pitch, and a
    // single tap. 2-D and 3-D compose per dimension over a smaller box.
    std::size_t cases = 0;
    std::size_t mismatches = 0;
    std::string first;
    for (int dims = 1; dims <= 3; ++dims) {
        const int max_data = dims == 1 ? 10 : 4;
        const int max_stride = dims == 1 ? 4 : 3;
        for (int data = 1; data <= max_data; ++data)
        for (int stride = 1; stride <= max_stride; ++stride)
        for (int rem = 0; rem < stride; ++rem)
        for (int pad = 0; pad <= 6; ++pad)
        for (int out = 1; (out - 1) * stride + 1 + rem <= data + 2 * pad;
             ++out) {
            LayerOp op = wconvOp(data, pad, out, stride, rem);
            op.spatialDims = dims;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            const ClassCounts counts =
                wconvClassCounts(data, pad, out, stride, rem, dims);
            ++cases;
            if (analysis.corner.matrices == counts.corner &&
                analysis.edge.matrices == counts.edge &&
                analysis.inside.matrices == counts.inside) {
                continue;
            }
            if (mismatches++ == 0) {
                first = "I=" + std::to_string(data) +
                        " P=" + std::to_string(pad) +
                        " O=" + std::to_string(out) +
                        " S=" + std::to_string(stride) +
                        " R=" + std::to_string(rem) +
                        " d=" + std::to_string(dims) + ": enumerated " +
                        std::to_string(analysis.corner.matrices) + "/" +
                        std::to_string(analysis.edge.matrices) + "/" +
                        std::to_string(analysis.inside.matrices) +
                        ", closed form " + std::to_string(counts.corner) +
                        "/" + std::to_string(counts.edge) + "/" +
                        std::to_string(counts.inside);
            }
        }
    }
    EXPECT_GT(cases, 3000u);
    EXPECT_EQ(mismatches, 0u) << "of " << cases << "; first: " << first;
}

TEST(Reshape, Conv1MatchesPaperWorkedExample)
{
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    EXPECT_EQ(analysis.distinctMatrices(), 25u);
    EXPECT_EQ(analysis.corner.matrices, 9u);
    EXPECT_EQ(analysis.edge.matrices, 12u);
    EXPECT_EQ(analysis.inside.matrices, 4u);
    // Inside reuse t in {4, 6, 9}; max 9 -> 9 MMV cycles without
    // duplication (vs 64 without ZFDR).
    EXPECT_EQ(analysis.inside.maxReuse, 9u);
    EXPECT_EQ(analysis.totalPositions, 64u);
}

TEST(Reshape, FormulaAgreesWithEnumerationOnAllBenchmarks)
{
    // The closed forms must match the authoritative enumeration for every
    // sparse op of every benchmark.
    for (const GanModel &model : allBenchmarks()) {
        for (Phase phase : kAllPhases) {
            for (const LayerOp &op : opsForPhase(model, phase)) {
                if (!op.zfdrApplicable())
                    continue;
                if (op.padLo != op.padHi)
                    continue; // the paper's closed forms assume symmetry
                const ReshapeAnalysis analysis = analyzeReshape(op);
                ClassCounts counts;
                if (op.pattern == OpPattern::SparseGridConv) {
                    counts = tconvClassCounts(op.data, op.stride, op.padLo,
                                              op.rem, op.window,
                                              op.spatialDims);
                } else {
                    counts = wconvClassCounts(op.data, op.padLo, op.window,
                                              op.stride, op.rem,
                                              op.spatialDims);
                }
                EXPECT_EQ(analysis.inside.matrices, counts.inside)
                    << op.label;
                EXPECT_EQ(analysis.edge.matrices, counts.edge) << op.label;
                EXPECT_EQ(analysis.corner.matrices, counts.corner)
                    << op.label;
            }
        }
    }
}

TEST(Reshape, WconvInteriorReuseFormula)
{
    // Paper Case 3 of W-CONV-S: interior reused [I-(O-1)S]^d times.
    const GanModel model = makeBenchmark("DCGAN");
    const LayerOp op = findOp(model, Phase::DBwdWeight, "D.l1.conv");
    const ReshapeAnalysis analysis = analyzeReshape(op);
    const int reuse_1d = wconvInteriorReuse(64, 32, 2);
    EXPECT_EQ(analysis.inside.maxReuse,
              static_cast<std::uint64_t>(reuse_1d) * reuse_1d);
    EXPECT_EQ(analysis.inside.matrices, 1u);
}

TEST(Reshape, CoverageInvariantAcrossAllBenchmarks)
{
    // Every output position is served by exactly one reshaped matrix.
    for (const GanModel &model : allBenchmarks()) {
        for (Phase phase : kAllPhases) {
            for (const LayerOp &op : opsForPhase(model, phase)) {
                if (!op.zfdrApplicable())
                    continue;
                const ReshapeAnalysis analysis = analyzeReshape(op);
                EXPECT_EQ(analysis.corner.servedPositions +
                              analysis.edge.servedPositions +
                              analysis.inside.servedPositions,
                          analysis.totalPositions)
                    << op.label;
            }
        }
    }
}

TEST(Reshape, CornerNeverReused)
{
    // Case 1: corner matrices are non-reusable in the benchmarks' 2D
    // image layers (paper Sec. IV-A).
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    for (const ReshapeMatrix &m : analysis.matrices) {
        if (m.cls(2) == ReshapeClass::Corner) {
            EXPECT_EQ(m.reuse, 1u);
        }
    }
}

TEST(Replica, DegreesAreMonotone)
{
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    const ReplicaCostParams params;
    const ReplicaVector low =
        chooseReplicas(op, analysis, ReplicaDegree::Low, params);
    const ReplicaVector mid =
        chooseReplicas(op, analysis, ReplicaDegree::Middle, params);
    const ReplicaVector high =
        chooseReplicas(op, analysis, ReplicaDegree::High, params);

    EXPECT_EQ(low.corner, 1u);
    EXPECT_EQ(mid.corner, 1u);
    EXPECT_EQ(high.corner, 1u);
    EXPECT_LE(low.edge, mid.edge);
    EXPECT_LE(mid.edge, high.edge);
    EXPECT_LE(mid.inside, high.inside);
    EXPECT_GE(high.inside, high.edge);
}

TEST(Replica, NeverExceedsWorkload)
{
    for (const GanModel &model : allBenchmarks()) {
        for (Phase phase : kAllPhases) {
            for (const LayerOp &op : opsForPhase(model, phase)) {
                if (!op.zfdrApplicable())
                    continue;
                const ReshapeAnalysis analysis = analyzeReshape(op);
                const ReplicaVector high = chooseReplicas(
                    op, analysis, ReplicaDegree::High, ReplicaCostParams{});
                const std::uint64_t vpp = op.vectorsPerPosition;
                if (analysis.inside.matrices > 0) {
                    EXPECT_LE(high.inside,
                              std::max<std::uint64_t>(
                                  1, analysis.inside.maxReuse * vpp))
                        << op.label;
                }
            }
        }
    }
}

TEST(Replica, DenseReplicasFollowEq14)
{
    EXPECT_EQ(denseReplicas(ReplicaDegree::Low, 1000, 100), 1u);
    EXPECT_EQ(denseReplicas(ReplicaDegree::Middle, 1000, 100), 5u);
    EXPECT_EQ(denseReplicas(ReplicaDegree::High, 1000, 100), 10u);
    // Never below one copy.
    EXPECT_EQ(denseReplicas(ReplicaDegree::Middle, 100, 100), 1u);
}

TEST(Cost, Conv1NineCyclesWithoutDuplication)
{
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    const OpCost cost =
        zfdrOpCost(op, analysis, ReplicaVector{}, CrossbarGeom{});
    // "it only needs 9 cycles (one MMV uses one cycle) to complete CONV1.
    // While without ZFDR, it will take 64 cycles."
    EXPECT_EQ(cost.waves, 9u);
    const OpCost normal = normalOpCost(op, 1, CrossbarGeom{});
    EXPECT_EQ(normal.waves, 64u);
}

TEST(Cost, ZfdrFeedsOnlyUsefulInputs)
{
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    const OpCost zfdr =
        zfdrOpCost(op, analysis, ReplicaVector{}, CrossbarGeom{});
    const OpCost normal = normalOpCost(op, 1, CrossbarGeom{});
    EXPECT_EQ(zfdr.inputElems, 16384u);
    EXPECT_EQ(normal.inputElems, 147456u);
}

TEST(Cost, DuplicationReducesWaves)
{
    const LayerOp op = conv1Op();
    const ReshapeAnalysis analysis = analyzeReshape(op);
    ReplicaVector dup;
    dup.inside = 3;
    const OpCost base =
        zfdrOpCost(op, analysis, ReplicaVector{}, CrossbarGeom{});
    const OpCost faster = zfdrOpCost(op, analysis, dup, CrossbarGeom{});
    EXPECT_LT(faster.waves, base.waves);
    EXPECT_GT(faster.weightElems, base.weightElems);
}

TEST(Cost, CrossbarGeometry)
{
    const CrossbarGeom geom;
    EXPECT_EQ(geom.cellsPerWeight(), 4);
    EXPECT_EQ(geom.weightsPerCrossbar(), 128u * 32u);
    // A 128x32 matrix fits exactly one crossbar.
    EXPECT_EQ(geom.crossbarsFor(128, 32), 1u);
    EXPECT_EQ(geom.crossbarsFor(129, 32), 2u);
    EXPECT_EQ(geom.crossbarsFor(128, 33), 2u);
    EXPECT_EQ(geom.crossbarsFor(0, 10), 0u);
}

TEST(Cost, WavesTimesReplicasCoverIssues)
{
    // waves * max-replica >= per-matrix issues for every benchmark op.
    for (const GanModel &model : allBenchmarks()) {
        for (Phase phase : kAllPhases) {
            for (const LayerOp &op : opsForPhase(model, phase)) {
                if (!op.zfdrApplicable())
                    continue;
                const ReshapeAnalysis analysis = analyzeReshape(op);
                const ReplicaVector reps = chooseReplicas(
                    op, analysis, ReplicaDegree::Middle,
                    ReplicaCostParams{});
                const OpCost cost =
                    zfdrOpCost(op, analysis, reps, CrossbarGeom{});
                EXPECT_GE(cost.waves * std::max({reps.corner, reps.edge,
                                                 reps.inside}),
                          analysis.inside.maxReuse *
                              static_cast<std::uint64_t>(
                                  op.vectorsPerPosition))
                    << op.label;
                EXPECT_GT(cost.mmvs, 0u) << op.label;
            }
        }
    }
}

} // namespace
} // namespace lergan
