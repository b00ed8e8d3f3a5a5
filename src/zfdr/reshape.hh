/**
 * @file
 * Zero-Free Data Reshaping analysis (paper Sec. IV-A).
 *
 * Composes the exact 1-D zero patterns (nn/conv_pattern.hh) into the full
 * d-dimensional set of reshaped weight matrices for one layer op. Each
 * distinct d-dimensional window mask is one reshaped matrix stored in a
 * CArray; its reuse count is the number of output positions it serves.
 * Matrices are classified CornerReshape / EdgeReshape / InsideReshape by
 * how many dimensions use an interior (periodic) mask, matching the
 * paper's Case 1 / Case 2 / Case 3.
 */

#ifndef LERGAN_ZFDR_RESHAPE_HH
#define LERGAN_ZFDR_RESHAPE_HH

#include <cstdint>
#include <vector>

#include "nn/training.hh"

namespace lergan {

/** The three reshape classes of Sec. IV-A. */
enum class ReshapeClass { Corner, Edge, Inside };

/** One distinct reshaped matrix. */
struct ReshapeMatrix {
    /** Useful taps per dimension multiplied out (rows before channels). */
    std::uint64_t maskVolume = 0;
    /** Output positions served by this matrix. */
    std::uint64_t reuse = 0;
    /** Number of dimensions whose 1-D mask is interior. */
    int interiorDims = 0;

    /** Classification per the paper's three cases. */
    ReshapeClass cls(int spatial_dims) const;
};

/** Aggregate statistics for one reshape class. */
struct ClassStats {
    /** Distinct matrices in the class. */
    std::uint64_t matrices = 0;
    /** Total positions served by the class. */
    std::uint64_t servedPositions = 0;
    /** Largest reuse of any single matrix. */
    std::uint64_t maxReuse = 0;
    /** Weight elements stored for one copy of every matrix. */
    std::uint64_t weightElems = 0;
};

/** Full ZFDR analysis of one sparse layer op. */
struct ReshapeAnalysis {
    ClassStats corner;
    ClassStats edge;
    ClassStats inside;
    /** Every distinct matrix (size = product of per-dim distinct masks). */
    std::vector<ReshapeMatrix> matrices;
    /** positions^d: total output positions of the scan. */
    std::uint64_t totalPositions = 0;
    int spatialDims = 2;

    /** Access one class. */
    const ClassStats &byClass(ReshapeClass cls) const;

    /** Total distinct matrices. */
    std::uint64_t distinctMatrices() const;

    /** Weight elements for one copy of everything. */
    std::uint64_t totalWeightElems() const;
};

/**
 * Analyze a sparse op (SparseGridConv or SparseKernelConv).
 *
 * @pre op.zfdrApplicable().
 * Weight element counts include the channel dimensions: a matrix with
 * mask volume V stores V * vecChannels * outWidth values.
 */
ReshapeAnalysis analyzeReshape(const LayerOp &op);

} // namespace lergan

#endif // LERGAN_ZFDR_RESHAPE_HH
