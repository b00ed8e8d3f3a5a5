#include "core/machine.hh"

#include "common/logging.hh"

namespace lergan {

Machine::Machine(const AcceleratorConfig &config) : config_(config)
{
    const bool three_d = config.connection == Connection::ThreeD;
    const ReRamParams &params = config.reram;
    ThreeDOptions options;
    options.horizontal = three_d && config.horizontalWires;
    options.vertical = three_d && config.verticalWires;

    // One generator CU + one discriminator CU per pair.
    LERGAN_ASSERT(config.cuPairs >= 1, "need at least one CU pair");
    for (int pair = 0; pair < config.cuPairs; ++pair) {
        const int base = pair * 6;
        const ThreeDCU cu_g =
            build3dcu(topo_, pool_, params, base, options);
        const ThreeDCU cu_d =
            build3dcu(topo_, pool_, params, base + 3, options);
        for (const auto &bank : cu_g.banks)
            banks_.push_back(bank);
        for (const auto &bank : cu_d.banks)
            banks_.push_back(bank);
    }

    // The shared bus every bank reaches (the conventional path).
    TopoNode bus;
    bus.kind = NodeKind::Bus;
    bus.name = "bus";
    busNode_ = topo_.addNode(bus);
    for (const HTreeBank &bank : banks_)
        addBusLink(topo_, pool_, params, busNode_, bank);

    // The CU-pair bypasses: B1<->B4 and B3<->B6 within each pair
    // (Fig. 13), plus a link between neighboring pairs' generator CUs so
    // multi-CU GANs chain without the bus.
    if (three_d) {
        for (int pair = 0; pair < config.cuPairs; ++pair) {
            const int base = pair * 6;
            addBypassLink(topo_, pool_, params, banks_[base],
                          banks_[base + 3]);
            addBypassLink(topo_, pool_, params, banks_[base + 2],
                          banks_[base + 5]);
            if (pair + 1 < config.cuPairs) {
                addBypassLink(topo_, pool_, params, banks_[base],
                              banks_[base + 6]);
                addBypassLink(topo_, pool_, params, banks_[base + 3],
                              banks_[base + 9]);
            }
        }
    }

    // One compute-pipeline resource per tile.
    tileCompute_.resize(banks_.size());
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        for (int t = 0; t < params.tilesPerBank; ++t) {
            tileCompute_[b].push_back(pool_.create(
                "b" + std::to_string(b) + ".t" + std::to_string(t) +
                    ".compute",
                ResourceCategory::Compute));
        }
    }
}

const Route &
Machine::routeTiles(int bank_a, int tile_a, int bank_b, int tile_b,
                    bool cmode)
{
    const auto key = std::make_tuple(bank_a, tile_a, bank_b, tile_b, cmode);
    auto it = routeCache_.find(key);
    if (it != routeCache_.end())
        return it->second;

    Topology::LinkFilter filter;
    if (!cmode) {
        filter = [](const TopoLink &link) {
            return link.kind == LinkKind::HTree ||
                   link.kind == LinkKind::Bus;
        };
    }
    const int from = banks_[bank_a].tiles[tile_a];
    const int to = banks_[bank_b].tiles[tile_b];
    Route route = topo_.route(from, to, filter);
    LERGAN_ASSERT(route.valid(), "no route from bank ", bank_a, " tile ",
                  tile_a, " to bank ", bank_b, " tile ", tile_b);
    return routeCache_.emplace(key, std::move(route)).first->second;
}

AreaModel
Machine::area() const
{
    AreaModel area = areaModel3dcu(config_.reram);
    if (config_.connection == Connection::HTree) {
        area.addedWireArea = 0;
        area.switchArea = 0;
    }
    // Two CUs.
    area.tileArea *= 2;
    area.htreeWireArea *= 2;
    area.addedWireArea *= 2;
    area.switchArea *= 2;
    return area;
}

} // namespace lergan
