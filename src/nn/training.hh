/**
 * @file
 * Enumeration of GAN training phases and their per-layer operations.
 *
 * Training a GAN (paper Sec. II-B, Fig. 3/7/8) involves six phases:
 *   G->  generator forward            (T-CONV on zero-inserted inputs)
 *   D->  discriminator forward        (dense S-CONV)
 *   D<-  discriminator error backprop (T-CONV pattern: zero-inserted grads)
 *   Dw<- discriminator weight grads   (W-CONV-S: zero-inserted grad kernel)
 *   G<-  generator error backprop     (dense S-CONV through T-CONV layers)
 *   Gw<- generator weight grads       (W-CONV-T: zero-inserted inputs)
 *
 * Each phase lowers to a list of LayerOp records that capture exactly the
 * 1-D zero-pattern parameters (nn/conv_pattern.hh) plus the channel
 * dimensions needed to size MMVs, count useful work, and compute traffic.
 */

#ifndef LERGAN_NN_TRAINING_HH
#define LERGAN_NN_TRAINING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/phase.hh"
#include "nn/conv_pattern.hh"
#include "nn/model.hh"

namespace lergan {

/** Computation pattern of one layer in one phase. */
enum class OpPattern {
    DenseFc,          ///< dense matrix-vector (FC fwd / err)
    OuterProductFc,   ///< FC weight gradient
    DenseConv,        ///< dense convolution (S-CONV, no exploitable zeros)
    SparseGridConv,   ///< zero-inserted map scanned by dense window (ZFDR_T)
    SparseKernelConv, ///< dense map scanned by zero-inserted kernel (ZFDR_WS)
};

/**
 * One layer's work within one phase.
 *
 * For the sparse patterns, (data, stride, pad, rem, window) parameterize
 * the 1-D pattern; the full d-dimensional structure is the tensor product.
 * Element counts are per input item (one image / one error map); the
 * accelerator scales by batch.
 */
struct LayerOp {
    NetRole role = NetRole::Generator;
    std::size_t layerIdx = 0;
    Phase phase = Phase::GFwd;
    OpPattern pattern = OpPattern::DenseFc;
    /** Spatial dimensionality of the op (2 or 3). */
    int spatialDims = 2;

    /** @name Sparse-pattern parameters (see nn/conv_pattern.hh) */
    ///@{
    int data = 0;   ///< real elements per dim (I for grids, I for kernels)
    int stride = 1; ///< insertion / tap stride
    int padLo = 0;  ///< leading zero padding of the scanned object
    int padHi = 0;  ///< trailing zero padding of the scanned object
    int rem = 0;    ///< trailing-zero remainder R
    int window = 1; ///< dense window width, or tap count for sparse kernels
    ///@}

    /** Sliding positions per dimension (output side length of the scan). */
    int positions = 1;
    /** Channels contributing rows to each MMV vector. */
    int vecChannels = 1;
    /** MMV output columns (independent results per position). */
    int outWidth = 1;
    /** Sequential input vectors per window position (C_in for W-CONVs). */
    int vectorsPerPosition = 1;
    /** Dense matrix rows for DenseFc/DenseConv/OuterProductFc. */
    std::uint64_t denseRows = 0;

    /** Useful (non-zero) input elements per item. */
    std::uint64_t inputData = 0;
    /** Input elements including all inserted/padding zeros. */
    std::uint64_t inputWithZeros = 0;
    /** Output elements per item. */
    std::uint64_t outputData = 0;

    /** Diagnostic label ("D.l2.conv@D.bwd_w"). */
    std::string label;

    /** True when ZFDR removes zeros from this op. */
    bool
    zfdrApplicable() const
    {
        return pattern == OpPattern::SparseGridConv ||
               pattern == OpPattern::SparseKernelConv;
    }

    /** Build the 1-D pattern for a sparse op (panics on dense ops). */
    Pattern1D pattern1d() const;
};

/**
 * Lower one phase of @p model into per-layer operations.
 *
 * Forward phases list layers input-to-output; backward phases list them
 * output-to-input (matching error-flow order). The final classification
 * layer of the discriminator participates in DBwdErr like any other.
 */
std::vector<LayerOp> opsForPhase(const GanModel &model, Phase phase);

/** One phase occurrence inside a training step, with its batch factor. */
struct PhaseInstance {
    Phase phase;
    /**
     * Items processed relative to the minibatch size m: training the
     * discriminator feeds m fakes through G but 2m items (real + fake)
     * through D (paper Sec. II-B).
     */
    int batchFactor;
};

/** Phase sequence for one discriminator- or generator-training step. */
std::vector<PhaseInstance> phasesForStep(bool training_discriminator);

} // namespace lergan

#endif // LERGAN_NN_TRAINING_HH
