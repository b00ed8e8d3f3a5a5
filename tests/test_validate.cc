/**
 * @file
 * Tests for the compiled-mapping validator and the DOT exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/validate.hh"
#include "interconnect/dot_export.hh"
#include "core/machine.hh"
#include "workloads/zoo.hh"

namespace lergan {
namespace {

TEST(Validate, EveryBenchmarkMappingIsValid)
{
    for (const GanModel &model : allBenchmarks()) {
        for (ReplicaDegree degree :
             {ReplicaDegree::Low, ReplicaDegree::High}) {
            const AcceleratorConfig config =
                AcceleratorConfig::lerGan(degree);
            const CompiledGan compiled = compileGan(model, config);
            const ValidationResult result =
                validateMapping(model, config, compiled);
            EXPECT_TRUE(result.ok())
                << model.name << " " << config.label() << ": "
                << (result.violations.empty() ? ""
                                              : result.violations[0]);
        }
    }
}

TEST(Validate, PrimeAndMultiPairMappingsAreValid)
{
    const GanModel model = makeBenchmark("DCGAN");
    {
        const AcceleratorConfig config = AcceleratorConfig::prime();
        EXPECT_TRUE(validateMapping(model, config,
                                    compileGan(model, config))
                        .ok());
    }
    {
        AcceleratorConfig config =
            AcceleratorConfig::lerGan(ReplicaDegree::Low);
        config.cuPairs = 2;
        EXPECT_TRUE(validateMapping(model, config,
                                    compileGan(model, config))
                        .ok());
    }
}

TEST(Validate, FaultyMappingsStayValid)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.failedTiles = {{0, 0}, {3, 5}};
    const GanModel model = makeBenchmark("cGAN");
    EXPECT_TRUE(
        validateMapping(model, config, compileGan(model, config)).ok());
}

TEST(Validate, DetectsCorruptedMapping)
{
    const GanModel model = makeBenchmark("cGAN");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);
    CompiledGan compiled = compileGan(model, config);

    // Sabotage: move one op to the wrong bank.
    compiled.phases[0].ops[0].bank = 4;
    const ValidationResult wrong_bank =
        validateMapping(model, config, compiled);
    EXPECT_FALSE(wrong_bank.ok());

    // Sabotage: shrink an allocation.
    CompiledGan compiled2 = compileGan(model, config);
    compiled2.phases[1].ops[0].allocation.ranges.clear();
    EXPECT_FALSE(validateMapping(model, config, compiled2).ok());
}

TEST(Validate, DetectsOpWithoutTiles)
{
    const GanModel model = makeBenchmark("cGAN");
    const AcceleratorConfig config =
        AcceleratorConfig::lerGan(ReplicaDegree::Low);

    // Fully oversubscribed by hand: the crossbar count still adds up,
    // but the op has no tile to run on.
    CompiledGan no_tiles = compileGan(model, config);
    MappedOp &op = no_tiles.phases[1].ops[0];
    op.allocation.oversubscribed += op.allocation.reserved();
    op.allocation.ranges.clear();
    const ValidationResult empty = validateMapping(model, config, no_tiles);
    ASSERT_EQ(empty.violations.size(), 1u);
    EXPECT_NE(empty.violations[0].find("reserves no tile"),
              std::string::npos);
}

TEST(DotExport, EmitsClustersAndColoredWires)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    std::ostringstream oss;
    exportDot(oss, machine.topo());
    const std::string out = oss.str();
    EXPECT_NE(out.find("graph lergan {"), std::string::npos);
    EXPECT_NE(out.find("cluster_bank0"), std::string::npos);
    EXPECT_NE(out.find("cluster_bank5"), std::string::npos);
    EXPECT_NE(out.find("mediumblue"), std::string::npos); // vertical
    EXPECT_NE(out.find("darkorange"), std::string::npos); // horizontal
    EXPECT_NE(out.find("forestgreen"), std::string::npos); // bypass
    EXPECT_NE(out.find("crimson"), std::string::npos);    // bus
}

TEST(DotExport, HTreeMachineHasNoAddedWireColors)
{
    Machine machine(AcceleratorConfig::prime());
    std::ostringstream oss;
    exportDot(oss, machine.topo());
    EXPECT_EQ(oss.str().find("mediumblue"), std::string::npos);
    EXPECT_EQ(oss.str().find("darkorange"), std::string::npos);
    EXPECT_NE(oss.str().find("crimson"), std::string::npos);
}

} // namespace
} // namespace lergan
