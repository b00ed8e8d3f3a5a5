/**
 * @file
 * Tests for the Machine: hardware instantiation across connection
 * flavors and CU-pair counts.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/machine.hh"

namespace lergan {
namespace {

TEST(Machine, SixBanksWithTilesAndCpuFreePool)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    for (int bank = 0; bank < 6; ++bank) {
        EXPECT_EQ(machine.bank(bank).tiles.size(), 16u);
        EXPECT_EQ(machine.bank(bank).bankId, bank);
    }
    // Every tile has a compute resource with a stable name.
    const std::size_t res = machine.tileComputeRes(3, 7);
    EXPECT_EQ(machine.pool().name(res), "b3.t7.compute");
}

TEST(Machine, HTreeMachineHasNoAddedWires)
{
    Machine machine(AcceleratorConfig::prime());
    for (std::size_t i = 0; i < machine.topo().numLinks(); ++i) {
        const LinkKind kind = machine.topo().link(i).kind;
        EXPECT_TRUE(kind == LinkKind::HTree || kind == LinkKind::Bus);
    }
}

TEST(Machine, ThreeDMachineHasBypasses)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    int bypasses = 0;
    for (std::size_t i = 0; i < machine.topo().numLinks(); ++i)
        bypasses += machine.topo().link(i).kind == LinkKind::Bypass;
    // B1<->B4 and B3<->B6.
    EXPECT_EQ(bypasses, 2);
}

TEST(Machine, MultiPairMachineScales)
{
    AcceleratorConfig config = AcceleratorConfig::lerGan(ReplicaDegree::Low);
    config.cuPairs = 2;
    Machine machine(config);
    // 12 banks, all reachable from each other.
    EXPECT_EQ(machine.bank(11).bankId, 11);
    const Route &cross = machine.routeTiles(0, 0, 11, 15, true);
    EXPECT_TRUE(cross.valid());
    // Intra-pair bypasses x2 pairs + inter-pair links.
    int bypasses = 0;
    for (std::size_t i = 0; i < machine.topo().numLinks(); ++i)
        bypasses += machine.topo().link(i).kind == LinkKind::Bypass;
    EXPECT_EQ(bypasses, 2 * 2 + 2);
}

TEST(Machine, RouteCacheReturnsSameObject)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const Route &a = machine.routeTiles(0, 1, 3, 2, true);
    const Route &b = machine.routeTiles(0, 1, 3, 2, true);
    EXPECT_EQ(&a, &b);
    // Different mode -> different cached route object.
    const Route &c = machine.routeTiles(0, 1, 3, 2, false);
    EXPECT_NE(&a, &c);
}

TEST(Machine, SmodeRoutesAvoidAddedWires)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    const Route &smode = machine.routeTiles(0, 0, 1, 0, false);
    for (int link : smode.links) {
        const LinkKind kind = machine.topo().link(link).kind;
        EXPECT_TRUE(kind == LinkKind::HTree || kind == LinkKind::Bus);
    }
}

TEST(Machine, AreaReflectsConnection)
{
    Machine three_d(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    Machine h_tree(AcceleratorConfig::prime());
    EXPECT_GT(three_d.area().overhead(), 0.05);
    EXPECT_DOUBLE_EQ(h_tree.area().overhead(), 0.0);
}

TEST(MachineDeath, InvalidRoutePanics)
{
    Machine machine(AcceleratorConfig::lerGan(ReplicaDegree::Low));
    EXPECT_DEATH(machine.routeTiles(0, 0, 99, 0, true), "");
}

TEST(Machine, CachedRouteCarriesItsLinksResources)
{
    // The resource list of a cached route is the sorted, de-duplicated
    // union of its links' wire and switch resources, on both fabrics;
    // on the 3D machine consecutive added links share switches, so the
    // de-duplication is exercised. Charging a transfer along it costs
    // each link's own per-byte energy.
    for (const AcceleratorConfig &config :
         {AcceleratorConfig::lerGan(ReplicaDegree::Low),
          AcceleratorConfig::prime()}) {
        Machine machine(config);
        std::size_t shared = 0;
        for (const bool cmode : {true, false}) {
            for (const auto &[bank_a, tile_a, bank_b, tile_b] :
                 {std::tuple{0, 0, 0, 15}, std::tuple{0, 7, 0, 8},
                  std::tuple{0, 5, 1, 5}, std::tuple{2, 3, 5, 12},
                  std::tuple{3, 1, 4, 9}}) {
                const Route &route = machine.routeTiles(
                    bank_a, tile_a, bank_b, tile_b, cmode);
                std::set<std::size_t> expected;
                std::size_t total = 0;
                for (int link : route.links) {
                    const auto &res = machine.topo().link(link).resources;
                    expected.insert(res.begin(), res.end());
                    total += res.size();
                }
                EXPECT_EQ(route.resources,
                          std::vector<std::size_t>(expected.begin(),
                                                   expected.end()));
                bool shared_link = false;
                double link_pj = 0.0;
                for (int link : route.links) {
                    const TopoLink &l = machine.topo().link(link);
                    shared_link = shared_link || l.kind == LinkKind::Bus ||
                                  l.kind == LinkKind::Bypass;
                    link_pj += l.pjPerByte * 4096;
                }
                EXPECT_EQ(route.sharedLink, shared_link);
                BuildLedger ledger;
                machine.topo().chargeTransfer(route, 4096, ledger);
                StatSet stats;
                ledger.foldInto(stats);
                EXPECT_NEAR(stats.sumPrefix("energy.comm."), link_pj,
                            1e-12 * link_pj);
                shared += total - expected.size();
            }
        }
        if (config.connection == Connection::ThreeD) {
            EXPECT_GT(shared, 0u);
        }
    }
}

} // namespace
} // namespace lergan
