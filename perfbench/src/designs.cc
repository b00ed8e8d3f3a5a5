#include "designs.hh"

#include <algorithm>
#include <array>
#include <numeric>

#include "nn/parser.hh"

namespace perfbench {

namespace {

/** splitmix64: a small, fully specified generator, so the design list
 *  of a seed never depends on the simulator's own RNG. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform pick in [0, bound). */
    int
    below(int bound)
    {
        return static_cast<int>(next() % static_cast<std::uint64_t>(bound));
    }

  private:
    std::uint64_t state_;
};

/**
 * Geometry cycle: (item size, spatial dims, stage stride). Stride 3
 * only grows a 3-wide seed to a power of three: on other sizes the ZFDR
 * closed-form class counts disagree with enumeration for stride 3 (the
 * audit's zeros check fails), and no benchmark point may fail.
 */
struct Shape {
    int itemSize;
    int dims;
    int stride;
};
constexpr Shape kShapes[] = {
    {16, 2, 2}, {32, 2, 2}, {64, 2, 2}, {128, 2, 2}, {24, 3, 2}, {81, 2, 3},
};

/**
 * Channel ladders (base width, kernel minus stride minus 1). Every shape
 * gets each of them once per four designs; the seed decides which of
 * that shape's extra-layer variants gets which. The ladder sets most of
 * a design's task count, so this way every seed's pass does nearly the
 * same work.
 */
struct Ladder {
    int base;
    int extraKernel;
};
constexpr Ladder kLadders[] = {{32, 2}, {64, 1}, {128, 0}, {64, 0}};

/** Stages of stride @p stride from a seed at most 4 wide up to @p item. */
int
stagesFor(int item, int stride)
{
    int stages = 0;
    for (int size = item; size > 4; size = (size + stride - 1) / stride)
        ++stages;
    return std::max(stages, 1);
}

} // namespace

const std::vector<Design> &
tableV()
{
    static const std::vector<Design> designs = {
        {"DCGAN", "100f-(1024t-512t-256t-128t)(5k2s)-t3",
         "(3c-128c-256c-512c-1024c)(5k2s)-f1", 64, 2},
        {"cGAN", "100f-(256t-128t-64t)(4k2s)-t3",
         "(3c-64c-128c-256c)(4k2s)-f1", 64, 2},
        {"3D-GAN", "100f-(512t-256t-128t)(4k2s)-t3",
         "(1c-64c-128c-256c-512c)(4k2s)-f1", 64, 3},
        {"ArtGAN-CIFAR-10",
         "100f-1024t4k1s-512t4k2s-256t4k2s-128t4k2s-128t3k1s-t3",
         "3c4k2s-128c3k1s-(128c-256c-512c-1024c)(4k2s)-f11", 32, 2},
        {"GPGAN", "100f-(512t-256t-128t-64t)(4k2s)-t3",
         "(3c-64c-128c-256c-512c)(4k2s)-f1", 64, 2},
        {"MAGAN-MNIST", "50f-128t7k1s-64t4k2s-t1",
         "784f-256f-256f-784f-f11", 28, 2},
        {"DiscoGAN-4pairs",
         "(3c-64c-128c-256c-512t-256t-128t-64t)(4k2s)-t3",
         "(3c-64c-128c-256c-512c)(4k2s)-f1", 64, 2},
        {"DiscoGAN-5pairs",
         "(3c-64c-128c-256c-512c)(4k2s)-100f-(512t-256t-128t-64t)(4k2s)-t3",
         "(3c-64c-128c-256c-512c)(4k2s)-f1", 64, 2},
    };
    return designs;
}

std::vector<Design>
generateDesigns(std::uint64_t seed, int count)
{
    SplitMix rng(seed);
    // Per shape, a seeded order of the ladders (Fisher-Yates).
    std::array<std::array<int, std::size(kLadders)>, std::size(kShapes)>
        order;
    for (auto &ladders : order) {
        std::iota(ladders.begin(), ladders.end(), 0);
        for (int k = int(ladders.size()) - 1; k > 0; --k)
            std::swap(ladders[k], ladders[rng.below(k + 1)]);
    }
    std::vector<Design> designs;
    for (int i = 0; i < count; ++i) {
        const std::size_t s = i % std::size(kShapes);
        const Shape shape = kShapes[s];
        const Ladder ladder =
            kLadders[order[s][(i / std::size(kShapes)) % std::size(kLadders)]];
        // Kernels are never narrower than the stride, so every layer
        // has a valid padding.
        const int stride = shape.stride;
        const int kernel = stride + 1 + ladder.extraKernel;
        const int stages = stagesFor(shape.itemSize, stride);
        const int base = ladder.base;
        const int latent = 64 + 32 * rng.below(3);
        // Extra stride-1 layers by position, not by seed: they set the
        // task count, so every seed's pass does about the same work.
        const bool extraG = (i / std::size(kShapes)) % 2 == 0;
        const bool extraD = (i / (2 * std::size(kShapes))) % 2 == 0;
        const int colors = shape.dims == 3 ? 1 : 3;
        const std::string spec = "(" + std::to_string(kernel) + "k" +
                                 std::to_string(stride) + "s)";

        // Generator: widest next to the seed, halving toward the item.
        std::string gen = std::to_string(latent) + "f-(";
        int last = 0;
        for (int s = 0; s < stages; ++s) {
            last = std::min(1024, base << (stages - 1 - s));
            gen += (s ? "-" : "") + std::to_string(last) + "t";
        }
        gen += ")" + spec;
        if (extraG)
            gen += "-" + std::to_string(std::max(16, last / 2)) + "t3k1s";
        gen += "-t" + std::to_string(colors);

        // Discriminator: mirror ladder, doubling toward the FC head.
        std::string disc;
        if (extraD)
            disc = std::to_string(colors) + "c3k1s-";
        disc += "(" + std::to_string(extraD ? base : colors) + "c";
        for (int s = 0; s < stages; ++s) {
            const int width = base << (s + (extraD ? 1 : 0));
            disc += "-" + std::to_string(std::min(1024, width)) + "c";
        }
        disc += ")" + spec + "-f1";

        designs.push_back({"gen" + std::to_string(i), gen, disc,
                           shape.itemSize, shape.dims});
    }
    return designs;
}

lergan::GanModel
parseDesign(const Design &design)
{
    return lergan::parseGan(design.name, design.generator,
                            design.discriminator, design.itemSize,
                            design.spatialDims);
}

} // namespace perfbench
