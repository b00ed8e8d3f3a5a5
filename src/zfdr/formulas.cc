#include "zfdr/formulas.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lergan {

namespace {

/** Number of integers in [lo, hi] (0 when empty). */
std::int64_t
span(std::int64_t lo, std::int64_t hi)
{
    return std::max<std::int64_t>(0, hi - lo + 1);
}

/** Multiples of @p step (> 0) in [lo, hi], either sign (0 if empty). */
std::int64_t
multiplesIn(std::int64_t lo, std::int64_t hi, std::int64_t step)
{
    const auto floorDiv = [step](std::int64_t a) {
        return a / step - (a % step != 0 && a < 0 ? 1 : 0);
    };
    return hi < lo ? 0 : floorDiv(hi) - floorDiv(lo - 1);
}

/** n choose k for the tiny values used in class counting. */
std::uint64_t
choose(int n, int k)
{
    std::uint64_t result = 1;
    for (int i = 0; i < k; ++i)
        result = result * (n - i) / (i + 1);
    return result;
}

/** Integer power. */
std::uint64_t
upow(std::uint64_t base, int exp)
{
    std::uint64_t r = 1;
    for (int i = 0; i < exp; ++i)
        r *= base;
    return r;
}

/**
 * Class counts from per-dimension edge/interior mask counts. A composed
 * d-dimensional group is classified by how many of its dimensions use an
 * interior mask: all d -> inside, exactly d-1 -> edge, fewer -> corner
 * (the paper's corner case covers everything touching 2+ boundaries).
 */
ClassCounts
compose(std::uint64_t edge_1d, std::uint64_t interior_1d, int dims)
{
    ClassCounts counts;
    counts.inside = upow(interior_1d, dims);
    counts.edge = choose(dims, dims - 1) * upow(interior_1d, dims - 1) *
                  edge_1d;
    std::uint64_t total = upow(edge_1d + interior_1d, dims);
    counts.corner = total - counts.inside - counts.edge;
    return counts;
}

} // namespace

int
loopLength(int input, int insert_stride, int pad, int rem)
{
    LERGAN_ASSERT(input > 0 && insert_stride > 0 && pad >= 0 && rem >= 0,
                  "loopLength: bad arguments");
    if (pad >= insert_stride - 1)
        return input * insert_stride + (insert_stride - 1);
    if (pad + rem >= insert_stride - 1)
        return input * insert_stride;
    return input * insert_stride - (insert_stride - 1);
}

int
edgeR1(int pad, int insert_stride)
{
    return pad < insert_stride - 1 ? pad : pad - (insert_stride - 1);
}

int
edgeR2(int pad, int rem, int insert_stride)
{
    return pad + rem >= insert_stride - 1 ? (pad + rem) - (insert_stride - 1)
                                          : pad + rem;
}

Masks1d
tconvMasks1d(int input, int insert_stride, int pad, int rem, int window)
{
    LERGAN_ASSERT(input > 0 && insert_stride > 0 && pad >= 0 && rem >= 0 &&
                      window > 0,
                  "tconvMasks1d: bad arguments");
    const std::int64_t I = input, S = insert_stride, P = pad, R = rem,
                       W = window;
    // Data cells sit at 0, S', ..., D relative to the first one; window
    // starts t run over [t0, t1]. A window holds the data cells of one
    // residue class (-t mod S'), so its mask is that class's full
    // (interior) mask unless the map border clips it.
    const std::int64_t D = (I - 1) * S;
    const std::int64_t t0 = -P;
    const std::int64_t t1 = P + D + R + 1 - W;
    LERGAN_ASSERT(t1 >= t0, "tconvMasks1d: window wider than the grid");

    Masks1d masks;
    // Interior windows miss no data cell at either end. For W >= S'
    // every such window is non-empty and consecutive starts cycle
    // through the residues; for W < S' a residue f < W occurs when a
    // data cell kS' (k = 0, or else k = 1) lands f cells into a window.
    if (W >= S) {
        masks.interior = static_cast<std::uint64_t>(std::min(
            S, span(std::max(t0, 1 - S), std::min(t1, I * S - W))));
    } else {
        masks.interior = static_cast<std::uint64_t>(
            span(std::max<std::int64_t>(0, -t1), std::min(W - 1, P)) +
            (I >= 2 ? span(std::max(P + 1, S - t1), W - 1) : 0));
    }

    // Clipped windows start before -S'+1 (cut below) or after I*S'-W
    // (cut above). Each non-empty one has its own mask: cut-below masks
    // differ in their first offset, cut-above ones in their size. Empty
    // windows — wholly in a pad, or (W < S') between two data cells —
    // all share one mask.
    const std::int64_t above = std::max(t0, I * S - W + 1);
    const std::int64_t clipped = span(t0, std::min(t1, -S)) +
                                 span(above, t1) -
                                 span(above, std::min(t1, -S));
    const std::int64_t F = std::max(W, S);
    const std::int64_t emptyClipped =
        std::max<std::int64_t>(0, P + 1 - F) +
        std::max<std::int64_t>(0, P + R + 1 - F);
    const bool anyEmpty = P + R >= W || (I > 1 && W < S);
    masks.edge = static_cast<std::uint64_t>(clipped - emptyClipped +
                                            (anyEmpty ? 1 : 0));
    return masks;
}

ClassCounts
tconvClassCounts(int input, int insert_stride, int pad, int rem, int window,
                 int spatial_dims)
{
    const Masks1d masks =
        tconvMasks1d(input, insert_stride, pad, rem, window);
    return compose(masks.edge, masks.interior, spatial_dims);
}

ClassCounts
wconvClassCounts(int input, int pad, int out, int stride, int rem,
                 int spatial_dims)
{
    LERGAN_ASSERT(input > 0 && pad >= 0 && out > 0 && stride > 0 &&
                      rem >= 0 && rem < stride,
                  "wconvClassCounts: bad arguments");
    const std::int64_t I = input, P = pad, O = out, S = stride, R = rem;
    // Window j holds the taps k with u <= kS <= u + I - 1, u = P - j
    // over [u0, u1]: the tap range [lo, hi) with lo = max(0, ceil(u/S))
    // and hi = min(O, ceil((u + I)/S)). Both ends are nondecreasing in
    // u, so a mask never recurs once left: the distinct non-empty masks
    // are one plus the steps of (lo, hi). All empty masks are one mask.
    const std::int64_t u0 = (O - 1) * S + R + 1 - I - P;
    const std::int64_t u1 = P;
    const std::int64_t top = (O - 1) * S; // offset of the last tap
    std::int64_t masks = 0;
    std::int64_t interior = 0;
    bool anyEmpty = false;
    if (I >= S) {
        // Every window reaching the data holds a tap, so the non-empty
        // windows are exactly u in [1 - I, top].
        const std::int64_t ua = std::max(u0, 1 - I);
        const std::int64_t ub = std::min(u1, top);
        anyEmpty = u0 < ua || u1 > ub;
        if (ua <= ub) {
            // lo steps at u = 1 (mod S) once u >= 1; hi steps at
            // u = 1 - I (mod S) while u + I - 1 <= top. The two step
            // together only when S divides I.
            const std::int64_t hiLast = std::min(ub, top - I + 1);
            const std::int64_t loSteps =
                multiplesIn(std::max<std::int64_t>(ua, 0), ub - 1, S);
            const std::int64_t hiSteps =
                multiplesIn(ua + I, hiLast + I - 1, S);
            const std::int64_t bothSteps =
                I % S == 0 ? multiplesIn(std::max<std::int64_t>(ua, 0),
                                         hiLast - 1, S)
                           : 0;
            masks = 1 + loSteps + hiSteps - bothSteps;
            interior = std::max(ua, top - I + 1) <= std::min<std::int64_t>(
                                                        ub, 0)
                           ? 1
                           : 0;
        }
    } else {
        // Data narrower than the tap pitch: a non-empty mask is a single
        // tap k, seen when kS lies in [u0, u1 + I - 1], and full only
        // when O = 1. No window is empty only if all of [u0, u1] lies
        // in one tap's reach [kS - I + 1, kS].
        masks = multiplesIn(std::max<std::int64_t>(u0, 0),
                            std::min(u1 + I - 1, top), S);
        interior = O == 1 && masks > 0 ? 1 : 0;
        anyEmpty = multiplesIn(std::max<std::int64_t>(u1, 0),
                               std::min(u0 + I - 1, top), S) == 0;
    }
    const std::int64_t edge = masks - interior + (anyEmpty ? 1 : 0);
    return compose(static_cast<std::uint64_t>(edge),
                   static_cast<std::uint64_t>(interior), spatial_dims);
}

int
wconvInteriorReuse(int input, int out, int stride)
{
    return input - (out - 1) * stride;
}

} // namespace lergan
