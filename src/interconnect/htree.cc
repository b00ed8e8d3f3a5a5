#include "interconnect/htree.hh"

#include <string>

#include "common/logging.hh"

namespace lergan {

namespace {

/** Per-hop latency: Table IV's H-tree latency spread over the 4 levels. */
double
hopLatencyNs(const ReRamParams &params)
{
    return params.htreeNs / 4.0;
}

/** Per-hop, per-byte energy: the calibrated effective figure (see
 *  reram/params.hh; Table IV's 386 pJ H-tree access is the raw-wire
 *  component of it). */
double
hopPjPerByte(const ReRamParams &params)
{
    return params.hopPjPerByte;
}

} // namespace

HTreeBank
buildHTreeBank(Topology &topo, ResourcePool &pool, const ReRamParams &params,
               int bank_id)
{
    LERGAN_ASSERT(params.tilesPerBank == 16,
                  "the H-tree builder models 16-tile banks");
    HTreeBank bank;
    bank.bankId = bank_id;
    const std::string prefix = "b" + std::to_string(bank_id);

    auto make_node = [&](NodeKind kind, int depth, int index) {
        TopoNode node;
        node.kind = kind;
        node.bank = bank_id;
        node.depth = depth;
        node.index = index;
        node.name = prefix + ".d" + std::to_string(depth) + ".n" +
                    std::to_string(index);
        node.switchRes =
            pool.create(node.name + ".switch", ResourceCategory::Switch);
        return topo.addNode(node);
    };

    bank.port = make_node(NodeKind::BankPort, 0, 0);
    bank.routers.resize(3);
    for (int depth = 1; depth <= 3; ++depth) {
        const int row = 1 << depth;
        for (int i = 0; i < row; ++i)
            bank.routers[depth - 1].push_back(
                make_node(NodeKind::Router, depth, i));
    }
    for (int i = 0; i < params.tilesPerBank; ++i)
        bank.tiles.push_back(make_node(NodeKind::Tile, 4, i));

    // Wire widths: the leaf links carry the base tile bandwidth; widths
    // double through each merging level toward the bank port (merging
    // nodes at depths 1 and 3, multiplexing at depth 2).
    const double leaf_bw = params.linkBytesPerNs;
    const double bw_by_depth[4] = {4 * leaf_bw, 2 * leaf_bw, 2 * leaf_bw,
                                   leaf_bw};

    auto connect = [&](int parent, int child, int child_depth) {
        TopoLink link;
        link.a = parent;
        link.b = child;
        link.kind = LinkKind::HTree;
        link.latencyNs = hopLatencyNs(params);
        link.bytesPerNs = bw_by_depth[child_depth - 1];
        link.pjPerByte = hopPjPerByte(params);
        link.resources.push_back(
            pool.create(prefix + ".wire.d" + std::to_string(child_depth) +
                            "." + std::to_string(topo.node(child).index),
                        ResourceCategory::Wire));
        topo.addLink(link);
    };

    for (int i = 0; i < 2; ++i)
        connect(bank.port, bank.routers[0][i], 1);
    for (int depth = 2; depth <= 3; ++depth)
        for (std::size_t i = 0; i < bank.routers[depth - 1].size(); ++i)
            connect(bank.routers[depth - 2][i / 2],
                    bank.routers[depth - 1][i], depth);
    for (int i = 0; i < params.tilesPerBank; ++i)
        connect(bank.routers[2][i / 2], bank.tiles[i], 4);

    return bank;
}

int
htreeHopDistance(int tile_a, int tile_b)
{
    if (tile_a == tile_b)
        return 0;
    // Two leaves of a binary tree: up to the lowest common ancestor and
    // back down.
    int a = tile_a, b = tile_b, up = 0;
    while (a != b) {
        a /= 2;
        b /= 2;
        ++up;
    }
    return 2 * up;
}

} // namespace lergan
