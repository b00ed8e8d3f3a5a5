/**
 * @file
 * Layer and network shape descriptions.
 *
 * A GAN benchmark (Table V of the paper) is a generator and a
 * discriminator, each a sequence of LayerSpec. Layers carry only shapes —
 * simulated timing and energy never depend on numerical weight values.
 *
 * Convolution conventions (paper Sec. III-A, generalized to asymmetric
 * padding):
 *  - Conv (S-CONV), forward I -> O:
 *        (I + P_lo + P_hi - W) = (O - 1) * S + R            (Eq. 8)
 *  - TConv (T-CONV), forward I -> O:
 *        (O + P'_lo + P'_hi - W) = (I - 1) * S' + R         (Eq. 5)
 * R in [0, S) is the remainder; spatial maps are square (or cubic for
 * 3D-GAN) with side given by inSize/outSize.
 */

#ifndef LERGAN_NN_LAYER_HH
#define LERGAN_NN_LAYER_HH

#include <cstdint>
#include <string>

namespace lergan {

/** Kind of a network layer. */
enum class LayerKind {
    FullyConnected, ///< dense matrix-vector layer
    Conv,           ///< strided convolution (S-CONV)
    TConv,          ///< transposed convolution (T-CONV)
};

/** @return short printable name ("fc", "conv", "tconv"). */
const char *layerKindName(LayerKind kind);

/**
 * Shape of one layer.
 *
 * For FullyConnected layers the spatial fields are 1 and inChannels /
 * outChannels hold the unit counts. For (T)Conv layers, stride/pad/rem are
 * the parameters of the *defining* convolution: the forward conv for Conv
 * layers (S, P, R of Eq. 8) and the converse conv for TConv layers
 * (S', P', R of Eq. 5).
 */
struct LayerSpec {
    LayerKind kind = LayerKind::FullyConnected;
    /** Input feature maps (or FC input units). */
    int inChannels = 0;
    /** Output feature maps (or FC output units). */
    int outChannels = 0;
    /** Input spatial side length (1 for FC). */
    int inSize = 1;
    /** Output spatial side length (1 for FC). */
    int outSize = 1;
    /** Number of spatial dimensions: 2, or 3 for volumetric GANs. */
    int spatialDims = 2;
    /** Square kernel side (1 for FC). */
    int kernel = 1;
    /** Stride S (Conv) or converse stride S' (TConv). */
    int stride = 1;
    /**
     * Leading-side padding P (Conv) or converse padding P' (TConv).
     * Even kernels with "same"-style shapes need asymmetric padding, so
     * the trailing side is tracked separately in padHi.
     */
    int pad = 0;
    /** Trailing-side padding (== pad for the common symmetric case). */
    int padHi = 0;
    /** Division remainder R of Eq. 5 / Eq. 8. */
    int rem = 0;
    /** Human-readable name ("G.conv1"). */
    std::string name;

    /** Number of weight values in the layer. */
    std::uint64_t numWeights() const;

    /** Flattened input activation count (channels * inSize^d). */
    std::uint64_t inVolume() const;

    /** Flattened output activation count (channels * outSize^d). */
    std::uint64_t outVolume() const;

    /** Validate internal consistency; panics on violation. */
    void check() const;
};

/** Integer power helper for d-dimensional shape math. */
std::uint64_t ipow(std::uint64_t base, int exp);

} // namespace lergan

#endif // LERGAN_NN_LAYER_HH
