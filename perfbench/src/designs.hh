/**
 * @file
 * Benchmark inputs as topology DSL strings (paper Table V grammar).
 *
 * The simulator only ever sees these strings, through parseGan: the
 * Fig. 19 workloads use the eight Table V benchmarks verbatim, and the
 * cold-designs workload uses topologies generated from the run's seed.
 */

#ifndef PERFBENCH_DESIGNS_HH
#define PERFBENCH_DESIGNS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hh"

namespace perfbench {

/** One GAN topology as DSL strings plus its item geometry. */
struct Design {
    std::string name;
    std::string generator;
    std::string discriminator;
    int itemSize = 0;
    int spatialDims = 2;
};

/** The paper's Table V benchmarks, in table order. */
const std::vector<Design> &tableV();

/**
 * @p count seeded GAN topologies. The same seed always yields the same
 * list. Item size (16-128), 2D/3D, stage stride (2 or 3) and extra
 * stride-1 layers follow a fixed cycle, and every shape gets the same
 * four channel ladders (base width and kernel size), so every seed gets
 * the same mix of depths and graph sizes. The seed decides which of a
 * shape's extra-layer variants gets which ladder, and picks the latent
 * width.
 */
std::vector<Design> generateDesigns(std::uint64_t seed, int count);

/** parseGan on one design. */
lergan::GanModel parseDesign(const Design &design);

} // namespace perfbench

#endif // PERFBENCH_DESIGNS_HH
