#include "nn/layer.hh"

#include "common/logging.hh"

namespace lergan {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::FullyConnected: return "fc";
      case LayerKind::Conv:           return "conv";
      case LayerKind::TConv:          return "tconv";
    }
    return "?";
}

std::uint64_t
ipow(std::uint64_t base, int exp)
{
    std::uint64_t result = 1;
    for (int i = 0; i < exp; ++i)
        result *= base;
    return result;
}

std::uint64_t
LayerSpec::numWeights() const
{
    if (kind == LayerKind::FullyConnected) {
        return static_cast<std::uint64_t>(inChannels) * outChannels;
    }
    return ipow(static_cast<std::uint64_t>(kernel), spatialDims) *
           inChannels * outChannels;
}

std::uint64_t
LayerSpec::inVolume() const
{
    return static_cast<std::uint64_t>(inChannels) *
           ipow(static_cast<std::uint64_t>(inSize), spatialDims);
}

std::uint64_t
LayerSpec::outVolume() const
{
    return static_cast<std::uint64_t>(outChannels) *
           ipow(static_cast<std::uint64_t>(outSize), spatialDims);
}

void
LayerSpec::check() const
{
    LERGAN_ASSERT(inChannels > 0 && outChannels > 0,
                  "layer ", name, ": channel counts must be positive");
    LERGAN_ASSERT(spatialDims == 2 || spatialDims == 3,
                  "layer ", name, ": unsupported spatial dimensionality ",
                  spatialDims);
    if (kind == LayerKind::FullyConnected) {
        LERGAN_ASSERT(inSize == 1 && outSize == 1 && kernel == 1,
                      "layer ", name, ": FC layers are spatially trivial");
        return;
    }
    LERGAN_ASSERT(inSize > 0 && outSize > 0 && kernel > 0 && stride > 0,
                  "layer ", name, ": sizes must be positive");
    LERGAN_ASSERT(pad >= 0 && padHi >= 0 && rem >= 0 && rem < stride,
                  "layer ", name, ": invalid pad/remainder");
    if (kind == LayerKind::Conv) {
        // Eq. 8: (I + P_lo + P_hi - W) = (O - 1) S + R
        LERGAN_ASSERT(inSize + pad + padHi - kernel ==
                          (outSize - 1) * stride + rem,
                      "layer ", name, ": Eq. 8 violated");
    } else {
        // Eq. 5: (O + P'_lo + P'_hi - W) = (I - 1) S' + R
        LERGAN_ASSERT(outSize + pad + padHi - kernel ==
                          (inSize - 1) * stride + rem,
                      "layer ", name, ": Eq. 5 violated");
    }
}

} // namespace lergan
