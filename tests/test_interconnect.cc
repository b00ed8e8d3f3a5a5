/**
 * @file
 * Tests for the topology graph, the H-tree builder and the 3D connection.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "interconnect/htree.hh"
#include "interconnect/three_d.hh"

namespace lergan {
namespace {

TEST(Topology, RouteFindsShortestByLatency)
{
    Topology topo;
    ResourcePool pool;
    // Triangle: a-b (10ns), b-c (10ns), a-c (50ns direct).
    const int a = topo.addNode({NodeKind::Tile, 0, 0, 0, "a", SIZE_MAX});
    const int b = topo.addNode({NodeKind::Tile, 0, 0, 1, "b", SIZE_MAX});
    const int c = topo.addNode({NodeKind::Tile, 0, 0, 2, "c", SIZE_MAX});
    auto link = [&](int x, int y, double lat) {
        TopoLink l;
        l.a = x;
        l.b = y;
        l.latencyNs = lat;
        l.bytesPerNs = 1.0;
        l.pjPerByte = 1.0;
        l.resources.push_back(pool.create("w", ResourceCategory::Other));
        topo.addLink(l);
    };
    link(a, b, 10);
    link(b, c, 10);
    link(a, c, 50);
    const Route route = topo.route(a, c);
    ASSERT_TRUE(route.valid());
    EXPECT_EQ(route.links.size(), 2u); // via b
    EXPECT_DOUBLE_EQ(route.latencyNs, 20.0);
}

TEST(Topology, RouteRespectsFilter)
{
    Topology topo;
    ResourcePool pool;
    const int a = topo.addNode({NodeKind::Tile, 0, 0, 0, "a", SIZE_MAX});
    const int b = topo.addNode({NodeKind::Tile, 0, 0, 1, "b", SIZE_MAX});
    TopoLink l;
    l.a = a;
    l.b = b;
    l.kind = LinkKind::Vertical;
    l.latencyNs = 1;
    l.bytesPerNs = 1;
    l.resources.push_back(pool.create("v", ResourceCategory::Other));
    topo.addLink(l);
    const auto htree_only = [](const TopoLink &link) {
        return link.kind == LinkKind::HTree;
    };
    EXPECT_TRUE(topo.route(a, b).valid());
    EXPECT_FALSE(topo.route(a, b, htree_only).valid());
}

TEST(Topology, SelfRouteIsFree)
{
    Topology topo;
    const int a = topo.addNode({NodeKind::Tile, 0, 0, 0, "a", SIZE_MAX});
    const Route route = topo.route(a, a);
    EXPECT_TRUE(route.valid());
    EXPECT_TRUE(route.links.empty());
    EXPECT_EQ(route.transferTime(1 << 20), 0u);
}

TEST(Topology, TransferTimeHasLatencyAndSerialization)
{
    Route route;
    route.latencyNs = 10;
    route.minBytesPerNs = 2;
    EXPECT_EQ(route.transferTime(100), nsToPs(10 + 50));
}

TEST(Topology, ChargeTransferChargesEveryLinkOfTheRoute)
{
    // A chain over four wire kinds: each link charges its own per-byte
    // energy under its kind's key (both added kinds share one) and one
    // flit count per kind, then the route charges the traffic totals.
    Topology topo;
    ResourcePool pool;
    std::vector<int> nodes;
    for (int i = 0; i < 5; ++i)
        nodes.push_back(topo.addNode(
            {NodeKind::Tile, 0, 0, i, "n" + std::to_string(i), SIZE_MAX}));
    const std::pair<LinkKind, double> chain[] = {
        {LinkKind::HTree, 2.0},
        {LinkKind::Vertical, 3.0},
        {LinkKind::Bypass, 5.0},
        {LinkKind::Horizontal, 7.0},
    };
    for (int i = 0; i < 4; ++i) {
        TopoLink l;
        l.a = nodes[i];
        l.b = nodes[i + 1];
        l.kind = chain[i].first;
        l.latencyNs = 1;
        l.bytesPerNs = 1;
        l.pjPerByte = chain[i].second;
        l.resources.push_back(pool.create("w", ResourceCategory::Other));
        topo.addLink(l);
    }
    const Route route = topo.route(nodes.front(), nodes.back());
    ASSERT_EQ(route.links.size(), 4u);
    EXPECT_TRUE(route.sharedLink); // the bypass

    BuildLedger ledger;
    topo.chargeTransfer(route, 100, ledger);
    StatSet stats;
    ledger.foldInto(stats);
    double expected = 0.0;
    for (int link : route.links)
        expected += topo.link(link).pjPerByte * 100;
    EXPECT_DOUBLE_EQ(stats.sumPrefix("energy.comm."), expected);
    EXPECT_DOUBLE_EQ(stats.get("energy.comm.htree"), 200.0);
    EXPECT_DOUBLE_EQ(stats.get("energy.comm.added"), 1000.0);
    EXPECT_DOUBLE_EQ(stats.get("energy.comm.bypass"), 500.0);
    EXPECT_FALSE(stats.has("energy.comm.bus"));
    EXPECT_DOUBLE_EQ(stats.get("traffic.bytes"), 100.0);
    EXPECT_DOUBLE_EQ(stats.get("traffic.byte_hops"), 400.0);
    for (Quantity flits : {Quantity::FlitsHTree, Quantity::FlitsVertical,
                           Quantity::FlitsBypass, Quantity::FlitsHorizontal})
        EXPECT_EQ(ledger.value(flits), static_cast<double>(flitsFor(100)));
    EXPECT_FALSE(ledger.has(Quantity::FlitsBus));
}

TEST(Topology, WireQuantitiesFollowLinkKindOrder)
{
    // kWireQuantities is indexed by LinkKind; pin each row by name.
    const std::pair<LinkKind, std::pair<std::string, std::string>> rows[] = {
        {LinkKind::HTree, {"energy.comm.htree", "ic.htree.wire.flits"}},
        {LinkKind::Horizontal, {"energy.comm.added", "ic.added.h.flits"}},
        {LinkKind::Vertical, {"energy.comm.added", "ic.added.v.flits"}},
        {LinkKind::Bypass, {"energy.comm.bypass", "ic.bypass.flits"}},
        {LinkKind::Bus, {"energy.comm.bus", "ic.bus.flits"}},
    };
    EXPECT_EQ(std::size(kWireQuantities), std::size(rows));
    for (const auto &[kind, names] : rows) {
        const WireQuantities &wire =
            kWireQuantities[static_cast<std::size_t>(kind)];
        EXPECT_EQ(quantityName(wire.energy), names.first);
        EXPECT_EQ(quantityName(wire.flits), names.second);
    }
}

TEST(HTree, BankStructure)
{
    Topology topo;
    ResourcePool pool;
    const HTreeBank bank = buildHTreeBank(topo, pool, ReRamParams{}, 0);
    EXPECT_EQ(bank.tiles.size(), 16u);
    ASSERT_EQ(bank.routers.size(), 3u);
    EXPECT_EQ(bank.routers[0].size(), 2u);
    EXPECT_EQ(bank.routers[1].size(), 4u);
    EXPECT_EQ(bank.routers[2].size(), 8u);
    // 1 port + 14 routers + 16 tiles.
    EXPECT_EQ(topo.numNodes(), 31u);
    // A binary tree over 31 nodes has 30 edges.
    EXPECT_EQ(topo.numLinks(), 30u);
}

TEST(HTree, SiblingTilesAreTwoHopsApart)
{
    Topology topo;
    ResourcePool pool;
    const HTreeBank bank = buildHTreeBank(topo, pool, ReRamParams{}, 0);
    const Route sibling = topo.route(bank.tiles[0], bank.tiles[1]);
    EXPECT_EQ(sibling.links.size(), 2u);
    // Opposite corners traverse the full tree: 4 up + 4 down.
    const Route far = topo.route(bank.tiles[0], bank.tiles[15]);
    EXPECT_EQ(far.links.size(), 8u);
    EXPECT_EQ(htreeHopDistance(0, 1), 2);
    EXPECT_EQ(htreeHopDistance(0, 15), 8);
    EXPECT_EQ(htreeHopDistance(3, 3), 0);
}

TEST(HTree, WireWidthsNarrowTowardLeaves)
{
    Topology topo;
    ResourcePool pool;
    const HTreeBank bank = buildHTreeBank(topo, pool, ReRamParams{}, 0);
    const Route far = topo.route(bank.tiles[0], bank.tiles[15]);
    double leaf_bw = 0, root_bw = 0;
    for (int idx : far.links) {
        const TopoLink &l = topo.link(idx);
        const int depth = std::max(topo.node(l.a).depth,
                                   topo.node(l.b).depth);
        if (depth == 4)
            leaf_bw = l.bytesPerNs;
        if (depth == 1)
            root_bw = l.bytesPerNs;
    }
    EXPECT_GT(root_bw, leaf_bw);
}

TEST(ThreeD, AddsHorizontalVerticalLinks)
{
    Topology topo;
    ResourcePool pool;
    const ThreeDCU cu = build3dcu(topo, pool, ReRamParams{}, 0, true);
    // Horizontal: (1 + 3 + 7) per bank x 3 banks = 33.
    // Vertical: (2 + 4 + 8 + 16) per bank pair x 2 pairs = 60.
    EXPECT_EQ(cu.addedLinks, 33 + 60);
    EXPECT_GT(cu.addedSwitches, 0);
}

TEST(ThreeD, PlainStackHasNoAddedLinks)
{
    Topology topo;
    ResourcePool pool;
    const ThreeDCU cu = build3dcu(topo, pool, ReRamParams{}, 0, false);
    EXPECT_EQ(cu.addedLinks, 0);
    for (std::size_t i = 0; i < topo.numLinks(); ++i)
        EXPECT_EQ(topo.link(i).kind, LinkKind::HTree);
}

TEST(ThreeD, VerticalWiresShortenInterBankRoutes)
{
    Topology topo3d, topo2d;
    ResourcePool pool3d, pool2d;
    const ThreeDCU cu3d = build3dcu(topo3d, pool3d, ReRamParams{}, 0, true);
    const ThreeDCU cu2d =
        build3dcu(topo2d, pool2d, ReRamParams{}, 0, false);
    // In 2D the stacked banks are simply unconnected (they only meet at
    // the bus, which this unit does not build); in 3D the corresponding
    // tiles are one vertical hop apart.
    const Route r3d = topo3d.route(cu3d.banks[0].tiles[5],
                                   cu3d.banks[1].tiles[5]);
    ASSERT_TRUE(r3d.valid());
    EXPECT_EQ(r3d.links.size(), 1u);
    EXPECT_EQ(topo3d.link(r3d.links[0]).kind, LinkKind::Vertical);
    EXPECT_FALSE(topo2d.route(cu2d.banks[0].tiles[5],
                              cu2d.banks[1].tiles[5])
                     .valid());
}

TEST(ThreeD, HorizontalWireCrossesSubtreeBoundary)
{
    Topology topo;
    ResourcePool pool;
    const ThreeDCU cu = build3dcu(topo, pool, ReRamParams{}, 0, true);
    // Tiles 7 and 8 sit in different root subtrees: 8 hops on the pure
    // H-tree, but the added wires shortcut across.
    const HTreeBank &bank = cu.banks[0];
    const auto htree_only = [](const TopoLink &l) {
        return l.kind == LinkKind::HTree;
    };
    const Route pure = topo.route(bank.tiles[7], bank.tiles[8], htree_only);
    const Route with3d = topo.route(bank.tiles[7], bank.tiles[8]);
    EXPECT_EQ(pure.links.size(), 8u);
    EXPECT_LT(with3d.links.size(), pure.links.size());
}

TEST(ThreeD, AddedLinksCarrySwitchResources)
{
    Topology topo;
    ResourcePool pool;
    build3dcu(topo, pool, ReRamParams{}, 0, true);
    for (std::size_t i = 0; i < topo.numLinks(); ++i) {
        const TopoLink &link = topo.link(i);
        if (link.kind == LinkKind::Horizontal ||
            link.kind == LinkKind::Vertical) {
            // wire + two endpoint switches
            EXPECT_EQ(link.resources.size(), 3u);
        } else {
            EXPECT_EQ(link.resources.size(), 1u);
        }
    }
}

TEST(ThreeD, MiddleBankHasSecondSwitch)
{
    Topology topo;
    ResourcePool pool;
    const ThreeDCU cu = build3dcu(topo, pool, ReRamParams{}, 0, true);
    // The up- and down-facing vertical links of a middle-bank node must
    // use different switch resources so they can run concurrently.
    const int mid_tile = cu.banks[1].tiles[3];
    std::vector<const TopoLink *> vertical;
    for (std::size_t i = 0; i < topo.numLinks(); ++i) {
        const TopoLink &l = topo.link(i);
        if (l.kind == LinkKind::Vertical &&
            (l.a == mid_tile || l.b == mid_tile)) {
            vertical.push_back(&l);
        }
    }
    ASSERT_EQ(vertical.size(), 2u);
    std::set<std::size_t> switches_up(vertical[0]->resources.begin(),
                                      vertical[0]->resources.end());
    std::set<std::size_t> switches_down(vertical[1]->resources.begin(),
                                        vertical[1]->resources.end());
    // The two links share no switch resource (only distinct wires and
    // distinct middle-bank switches).
    std::vector<std::size_t> common;
    std::set_intersection(switches_up.begin(), switches_up.end(),
                          switches_down.begin(), switches_down.end(),
                          std::back_inserter(common));
    EXPECT_TRUE(common.empty());
}

TEST(ThreeD, BypassConnectsPorts)
{
    Topology topo;
    ResourcePool pool;
    const ThreeDCU a = build3dcu(topo, pool, ReRamParams{}, 0, true);
    const ThreeDCU b = build3dcu(topo, pool, ReRamParams{}, 3, true);
    addBypassLink(topo, pool, ReRamParams{}, a.banks[0], b.banks[0]);
    const Route route = topo.route(a.banks[0].port, b.banks[0].port);
    ASSERT_TRUE(route.valid());
    EXPECT_EQ(route.links.size(), 1u);
    EXPECT_EQ(topo.link(route.links[0]).kind, LinkKind::Bypass);
}

TEST(ThreeD, AreaOverheadNearPaper)
{
    // Sec. VI-E: the added switches and wires cost 13.3% versus PRIME.
    const AreaModel area = areaModel3dcu(ReRamParams{});
    EXPECT_NEAR(area.overhead(), 0.133, 0.03);
    EXPECT_GT(area.tileArea, area.htreeWireArea);
}

} // namespace
} // namespace lergan
