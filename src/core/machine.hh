/**
 * @file
 * Hardware instantiation: the CU pair, its resources, and routing.
 *
 * A Machine owns the topology (six banks as two 3DCUs or six plain
 * H-tree banks on a bus), the resource pool (the names and categories
 * of the wires, switches and tile compute pipelines) and a route cache.
 * The accelerator builds task graphs against it; runs need none of it.
 */

#ifndef LERGAN_CORE_MACHINE_HH
#define LERGAN_CORE_MACHINE_HH

#include <map>
#include <vector>

#include "core/config.hh"
#include "interconnect/three_d.hh"
#include "sim/resource.hh"

namespace lergan {

/** The instantiated CU pair. */
class Machine
{
  public:
    explicit Machine(const AcceleratorConfig &config);

    Topology &topo() { return topo_; }
    const Topology &topo() const { return topo_; }
    ResourcePool &pool() { return pool_; }
    const ResourcePool &pool() const { return pool_; }

    /** Bank handles, 0..5 (Fig. 13 roles B1..B6). */
    const HTreeBank &bank(int index) const { return banks_[index]; }

    /** Compute-pipeline resource of one tile. */
    std::size_t
    tileComputeRes(int bank, int tile) const
    {
        return tileCompute_[bank][tile];
    }

    /** The shared bus node id. */
    int busNode() const { return busNode_; }

    /**
     * Cached route between two tiles (possibly in different banks).
     * In Cmode the added 3D wires are usable; Smode restricts to the
     * original H-tree + bus wiring.
     */
    const Route &routeTiles(int bank_a, int tile_a, int bank_b, int tile_b,
                            bool cmode);

    /** Area accounting of the interconnect (Sec. VI-E overhead). */
    AreaModel area() const;

  private:
    AcceleratorConfig config_;
    Topology topo_;
    ResourcePool pool_;
    std::vector<HTreeBank> banks_;
    std::vector<std::vector<std::size_t>> tileCompute_;
    int busNode_ = -1;
    std::map<std::tuple<int, int, int, int, bool>, Route> routeCache_;
};

} // namespace lergan

#endif // LERGAN_CORE_MACHINE_HH
