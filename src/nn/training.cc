#include "nn/training.hh"

#include "common/logging.hh"

namespace lergan {

Pattern1D
LayerOp::pattern1d() const
{
    switch (pattern) {
      case OpPattern::SparseGridConv:
        return sparseGridPattern(data, stride, padLo, padHi, rem, window);
      case OpPattern::SparseKernelConv:
        return sparseKernelPattern(data, padLo, padHi, window, stride, rem);
      default:
        LERGAN_PANIC("pattern1d() called on dense op ", label);
    }
}

namespace {

/** Shared fields for every op of layer @p layer in phase @p phase. */
LayerOp
baseOp(const GanModel &model, NetRole role, std::size_t idx, Phase phase)
{
    const LayerSpec &layer = model.net(role)[idx];
    LayerOp op;
    op.role = role;
    op.layerIdx = idx;
    op.phase = phase;
    op.spatialDims = layer.spatialDims;
    op.label = layer.name + std::string("@") + phaseName(phase);
    return op;
}

/** Forward op for one layer (G.fwd and D.fwd share this lowering). */
LayerOp
forwardOp(const GanModel &model, NetRole role, std::size_t idx, Phase phase)
{
    const LayerSpec &l = model.net(role)[idx];
    LayerOp op = baseOp(model, role, idx, phase);
    op.inputData = l.inVolume();
    op.outputData = l.outVolume();
    switch (l.kind) {
      case LayerKind::FullyConnected:
        op.pattern = OpPattern::DenseFc;
        op.denseRows = l.inChannels;
        op.outWidth = l.outChannels;
        op.inputWithZeros = op.inputData;
        break;
      case LayerKind::Conv:
        // Dense S-CONV: slide the kernel over the (dense) input.
        op.pattern = OpPattern::DenseConv;
        op.positions = l.outSize;
        op.window = l.kernel;
        op.vecChannels = l.inChannels;
        op.outWidth = l.outChannels;
        op.denseRows = ipow(l.kernel, l.spatialDims) * l.inChannels;
        op.inputWithZeros = op.inputData;
        break;
      case LayerKind::TConv: {
        // T-CONV: zero-inserted input scanned by the dense kernel.
        op.pattern = OpPattern::SparseGridConv;
        op.data = l.inSize;
        op.stride = l.stride;                   // S'
        op.padLo = l.kernel - l.pad - 1;        // P = W - P' - 1
        op.padHi = l.kernel - l.padHi - 1;
        op.rem = l.rem;
        op.window = l.kernel;
        op.positions = l.outSize;
        op.vecChannels = l.inChannels;
        op.outWidth = l.outChannels;
        const Pattern1D p = op.pattern1d();
        LERGAN_ASSERT(p.positions == l.outSize, op.label,
                      ": T-CONV positions ", p.positions, " != O ",
                      l.outSize);
        op.inputWithZeros = ipow(p.gridLength, l.spatialDims) *
                            static_cast<std::uint64_t>(l.inChannels);
        break;
      }
    }
    return op;
}

/** Error-backprop op through one layer (grad of output -> grad of input). */
LayerOp
errorOp(const GanModel &model, NetRole role, std::size_t idx, Phase phase)
{
    const LayerSpec &l = model.net(role)[idx];
    LayerOp op = baseOp(model, role, idx, phase);
    op.inputData = l.outVolume();  // consumes the output-side gradient
    op.outputData = l.inVolume();  // produces the input-side gradient
    switch (l.kind) {
      case LayerKind::FullyConnected:
        // Transposed dense matrix-vector.
        op.pattern = OpPattern::DenseFc;
        op.denseRows = l.outChannels;
        op.outWidth = l.inChannels;
        op.inputWithZeros = op.inputData;
        break;
      case LayerKind::Conv: {
        // Backprop through S-CONV = T-CONV on the zero-inserted grad map.
        op.pattern = OpPattern::SparseGridConv;
        op.data = l.outSize;
        op.stride = l.stride;              // S
        op.padLo = l.kernel - l.pad - 1;
        op.padHi = l.kernel - l.padHi - 1;
        op.rem = l.rem;
        op.window = l.kernel;
        op.positions = l.inSize;
        op.vecChannels = l.outChannels;
        op.outWidth = l.inChannels;
        const Pattern1D p = op.pattern1d();
        LERGAN_ASSERT(p.positions == l.inSize, op.label,
                      ": backprop positions ", p.positions, " != I ",
                      l.inSize);
        op.inputWithZeros = ipow(p.gridLength, l.spatialDims) *
                            static_cast<std::uint64_t>(l.outChannels);
        break;
      }
      case LayerKind::TConv:
        // Backprop through T-CONV = dense S-CONV over the grad map.
        op.pattern = OpPattern::DenseConv;
        op.positions = l.inSize;
        op.window = l.kernel;
        op.vecChannels = l.outChannels;
        op.outWidth = l.inChannels;
        op.denseRows = ipow(l.kernel, l.spatialDims) * l.outChannels;
        op.inputWithZeros = op.inputData;
        break;
    }
    return op;
}

/** Weight-gradient op for one layer. */
LayerOp
weightGradOp(const GanModel &model, NetRole role, std::size_t idx,
             Phase phase)
{
    const LayerSpec &l = model.net(role)[idx];
    LayerOp op = baseOp(model, role, idx, phase);
    // Consumes the cached input activations plus the output-side gradient.
    op.inputData = l.inVolume() + l.outVolume();
    op.outputData = l.numWeights();
    switch (l.kind) {
      case LayerKind::FullyConnected:
        op.pattern = OpPattern::OuterProductFc;
        op.denseRows = l.inChannels;
        op.outWidth = l.outChannels;
        op.inputWithZeros = op.inputData;
        break;
      case LayerKind::Conv: {
        // W-CONV-S: the zero-inserted grad acts as the kernel scanning the
        // padded dense input (paper Fig. 6, Eq. 8-10).
        op.pattern = OpPattern::SparseKernelConv;
        op.data = l.inSize;
        op.padLo = l.pad;
        op.padHi = l.padHi;
        op.window = l.outSize; // taps = O
        op.stride = l.stride;
        op.rem = l.rem;
        op.positions = l.kernel;
        op.vecChannels = 1;
        op.outWidth = l.outChannels;
        op.vectorsPerPosition = l.inChannels;
        const Pattern1D p = op.pattern1d();
        LERGAN_ASSERT(p.positions == l.kernel, op.label,
                      ": W-CONV-S positions ", p.positions, " != W ",
                      l.kernel);
        // Zeros counted per Eq. 10: input padding plus grad insertion.
        const std::uint64_t padded_in =
            ipow(l.inSize + l.pad + l.padHi, l.spatialDims) *
            static_cast<std::uint64_t>(l.inChannels);
        const std::uint64_t inserted_grad =
            ipow((l.outSize - 1) * l.stride + 1 + l.rem, l.spatialDims) *
            static_cast<std::uint64_t>(l.outChannels);
        op.inputWithZeros = padded_in + inserted_grad;
        break;
      }
      case LayerKind::TConv: {
        // W-CONV-T: the zero-inserted input is scanned by the dense grad
        // map (extent O per dim), producing the W^d weight gradient.
        op.pattern = OpPattern::SparseGridConv;
        op.data = l.inSize;
        op.stride = l.stride;
        op.padLo = l.kernel - l.pad - 1;
        op.padHi = l.kernel - l.padHi - 1;
        op.rem = l.rem;
        op.window = l.outSize; // the grad map is the window
        op.positions = l.kernel;
        op.vecChannels = 1;
        op.outWidth = l.outChannels;
        op.vectorsPerPosition = l.inChannels;
        const Pattern1D p = op.pattern1d();
        LERGAN_ASSERT(p.positions == l.kernel, op.label,
                      ": W-CONV-T positions ", p.positions, " != W ",
                      l.kernel);
        op.inputWithZeros =
            ipow(p.gridLength, l.spatialDims) *
                static_cast<std::uint64_t>(l.inChannels) +
            l.outVolume();
        break;
      }
    }
    return op;
}

} // namespace

std::vector<LayerOp>
opsForPhase(const GanModel &model, Phase phase)
{
    std::vector<LayerOp> ops;
    auto forward = [&](NetRole role) {
        const auto &net = model.net(role);
        for (std::size_t i = 0; i < net.size(); ++i)
            ops.push_back(forwardOp(model, role, i, phase));
    };
    auto backward_err = [&](NetRole role) {
        const auto &net = model.net(role);
        for (std::size_t i = net.size(); i-- > 0;)
            ops.push_back(errorOp(model, role, i, phase));
    };
    auto backward_w = [&](NetRole role) {
        const auto &net = model.net(role);
        for (std::size_t i = net.size(); i-- > 0;)
            ops.push_back(weightGradOp(model, role, i, phase));
    };

    switch (phase) {
      case Phase::GFwd:       forward(NetRole::Generator); break;
      case Phase::DFwd:       forward(NetRole::Discriminator); break;
      case Phase::DBwdErr:    backward_err(NetRole::Discriminator); break;
      case Phase::DBwdWeight: backward_w(NetRole::Discriminator); break;
      case Phase::GBwdErr:    backward_err(NetRole::Generator); break;
      case Phase::GBwdWeight: backward_w(NetRole::Generator); break;
      default: LERGAN_PANIC(phaseName(phase), " is not a training phase");
    }
    return ops;
}

std::vector<PhaseInstance>
phasesForStep(bool training_discriminator)
{
    if (training_discriminator) {
        // G produces m fakes; D sees m real + m fake items; the backward
        // pass runs over the same 2m items. The generator is not updated.
        return {
            {Phase::GFwd, 1},       {Phase::DFwd, 2},
            {Phase::DBwdErr, 2},    {Phase::DBwdWeight, 2},
        };
    }
    // Training G: errors flow through D (weights frozen) into G.
    return {
        {Phase::GFwd, 1},       {Phase::DFwd, 1},
        {Phase::DBwdErr, 1},    {Phase::GBwdErr, 1},
        {Phase::GBwdWeight, 1},
    };
}

} // namespace lergan
