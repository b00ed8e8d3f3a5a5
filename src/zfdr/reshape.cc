#include "zfdr/reshape.hh"

#include "common/logging.hh"

namespace lergan {

ReshapeClass
ReshapeMatrix::cls(int spatial_dims) const
{
    if (interiorDims == spatial_dims)
        return ReshapeClass::Inside;
    if (interiorDims == spatial_dims - 1)
        return ReshapeClass::Edge;
    return ReshapeClass::Corner;
}

const ClassStats &
ReshapeAnalysis::byClass(ReshapeClass cls) const
{
    switch (cls) {
      case ReshapeClass::Corner: return corner;
      case ReshapeClass::Edge:   return edge;
      case ReshapeClass::Inside: return inside;
    }
    return corner;
}

std::uint64_t
ReshapeAnalysis::distinctMatrices() const
{
    return corner.matrices + edge.matrices + inside.matrices;
}

std::uint64_t
ReshapeAnalysis::totalWeightElems() const
{
    return corner.weightElems + edge.weightElems + inside.weightElems;
}

ReshapeAnalysis
analyzeReshape(const LayerOp &op)
{
    LERGAN_ASSERT(op.zfdrApplicable(),
                  "analyzeReshape needs a sparse op, got ", op.label);
    const Pattern1D p = op.pattern1d();
    const int dims = op.spatialDims;
    const std::uint64_t channel_elems =
        static_cast<std::uint64_t>(op.vecChannels) * op.outWidth;

    ReshapeAnalysis analysis;
    analysis.spatialDims = dims;
    analysis.totalPositions = ipow(p.positions, dims);

    // The d-dimensional masks are all tuples of 1-D masks; mask volumes
    // and reuse counts multiply across dimensions.
    const std::size_t g = p.groups.size();
    std::vector<std::size_t> idx(dims, 0);
    for (;;) {
        ReshapeMatrix matrix;
        matrix.maskVolume = 1;
        matrix.reuse = 1;
        for (int d = 0; d < dims; ++d) {
            const MaskGroup &group = p.groups[idx[d]];
            matrix.maskVolume *= group.mask.size();
            matrix.reuse *= group.reuse;
            if (group.interior)
                ++matrix.interiorDims;
        }
        analysis.matrices.push_back(matrix);

        // Odometer increment over the d-fold group product.
        int d = 0;
        while (d < dims && ++idx[d] == g) {
            idx[d] = 0;
            ++d;
        }
        if (d == dims)
            break;
    }

    for (const ReshapeMatrix &m : analysis.matrices) {
        ClassStats *stats = nullptr;
        switch (m.cls(dims)) {
          case ReshapeClass::Corner: stats = &analysis.corner; break;
          case ReshapeClass::Edge:   stats = &analysis.edge; break;
          case ReshapeClass::Inside: stats = &analysis.inside; break;
        }
        stats->matrices += 1;
        stats->servedPositions += m.reuse;
        stats->maxReuse = std::max(stats->maxReuse, m.reuse);
        stats->weightElems += m.maskVolume * channel_elems;
    }

    LERGAN_ASSERT(analysis.corner.servedPositions +
                          analysis.edge.servedPositions +
                          analysis.inside.servedPositions ==
                      analysis.totalPositions,
                  op.label, ": reshape classes must cover all positions");
    return analysis;
}

} // namespace lergan
