/**
 * @file
 * The paper's closed-form ZFDR expressions (Sec. IV-A, Eq. 11-13).
 *
 * These are the formulas LerGAN's compiler uses to size the reshape
 * classes without enumerating windows. The enumeration in zfdr/reshape.hh
 * is the authoritative ground truth; unit tests check the closed forms
 * against it on every benchmark layer.
 *
 * Erratum handled: the paper states the T-CONV edge count as
 * "R1*S'*2 + R1*S'*2"; reproducing its own CONV1 total of 25 reshaped
 * matrices requires R1*S'*2 + R2*S'*2.
 *
 * The T-CONV class counts go beyond Eq. 11-13: the paper's edge count
 * (R1 + R2 boundary windows per dimension, each with its own mask)
 * holds only when P >= S'-1. With a smaller pad the boundary windows
 * see a whole residue class of the data, so their masks are interior
 * masks; tconvMasks1d counts distinct masks exactly for any geometry.
 * wconvClassCounts is likewise exact beyond the paper's W-CONV-S regime.
 */

#ifndef LERGAN_ZFDR_FORMULAS_HH
#define LERGAN_ZFDR_FORMULAS_HH

#include <cstdint>

namespace lergan {

/**
 * Loop Length (Eq. 11): the period of the reshaped-weight reuse pattern
 * along one dimension of a T-CONV.
 *
 * @param input         I, input side length.
 * @param insert_stride S', converse stride.
 * @param pad           P, forward padding (W - P' - 1).
 * @param rem           R, remainder of Eq. 5.
 */
int loopLength(int input, int insert_stride, int pad, int rem);

/** R1 (Eq. 12). */
int edgeR1(int pad, int insert_stride);

/** R2 (Eq. 13). */
int edgeR2(int pad, int rem, int insert_stride);

/** Distinct 1-D window masks of a T-CONV scan, by kind. */
struct Masks1d {
    std::uint64_t edge = 0;     ///< clipped by the map border, or empty
    std::uint64_t interior = 0; ///< a full residue class of the window
};

/**
 * Distinct 1-D masks of a dense @p window sliding over the zero-inserted
 * map (the sparse-grid pattern of nn/conv_pattern.hh), in closed form.
 * Reduces to R1 + R2 edge and S' interior masks (Eq. 12-13) in the
 * paper's regime: P >= S'-1, S' <= W, P + R < W (no window lies wholly
 * in padding) and W <= (I-1)S' + 1 (none is clipped at both ends).
 */
Masks1d tconvMasks1d(int input, int insert_stride, int pad, int rem,
                     int window);

/** Distinct reshaped matrices per class of a d-dimensional T-CONV ZFDR. */
struct ClassCounts {
    std::uint64_t corner = 0; ///< Case 1: no interior dimension
    std::uint64_t edge = 0;   ///< Case 2: all but one dimension interior
    std::uint64_t inside = 0; ///< Case 3: all dimensions interior
};

/**
 * T-CONV ZFDR class counts (paper Case 1-3 generalized to d dimensions)
 * from the per-dimension masks M = tconvMasks1d: inside = M.interior^d,
 * edge = d * M.interior^(d-1) * M.edge, corner = everything else.
 */
ClassCounts tconvClassCounts(int input, int insert_stride, int pad, int rem,
                             int window, int spatial_dims);

/**
 * W-CONV-S ZFDR class counts (paper Case 1-3). On the benchmark layers
 * each dimension has the paper's ceil(P/S) + ceil((P-R)/S) edge masks
 * and one interior (full) mask, reused I - (O-1)S times. The count is
 * exact for any geometry: pads past "same" padding (windows clipped at
 * both ends, or wholly in a pad), tiny inputs and data narrower than
 * the tap pitch (single-tap masks) included.
 */
ClassCounts wconvClassCounts(int input, int pad, int out, int stride,
                             int rem, int spatial_dims);

/** Interior reuse of a W-CONV-S along one dimension: I - (O-1)S. */
int wconvInteriorReuse(int input, int out, int stride);

} // namespace lergan

#endif // LERGAN_ZFDR_FORMULAS_HH
