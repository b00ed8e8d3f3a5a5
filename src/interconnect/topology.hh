/**
 * @file
 * Interconnect topology graph with latency-weighted routing.
 *
 * Nodes are tiles, H-tree routing nodes, bank ports and the global bus;
 * links carry latency, bandwidth and per-byte energy, and reference the
 * FIFO resources (sim/resource.hh) a transfer must hold. Added 3D links
 * also hold their endpoints' switch resources, which models the paper's
 * one-switch-per-node limitation: a node cannot serve its horizontal and
 * vertical wires simultaneously.
 */

#ifndef LERGAN_INTERCONNECT_TOPOLOGY_HH
#define LERGAN_INTERCONNECT_TOPOLOGY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "reram/ledger.hh"
#include "sim/resource.hh"

namespace lergan {

/** Role of a topology node. */
enum class NodeKind {
    Tile,     ///< compute/storage tile (H-tree leaf)
    Router,   ///< multiplexing or merging routing node
    BankPort, ///< root of a bank's H-tree
    Bus,      ///< shared inter-bank bus
};

/** Wire category, used for mode filtering and the area model. */
enum class LinkKind {
    HTree,      ///< original H-tree wire
    Horizontal, ///< added same-layer wire between different-parent nodes
    Vertical,   ///< added inter-bank (stacked) wire
    Bypass,     ///< direct bank-to-bank link between paired 3DCUs
    Bus,        ///< bank port to shared bus
};

/** Ledger quantities of each wire kind, in LinkKind order: its energy
 *  (both added kinds share one) and its flit counter. */
struct WireQuantities {
    Quantity energy;
    Quantity flits;
};
constexpr WireQuantities kWireQuantities[] = {
    {Quantity::CommHTree, Quantity::FlitsHTree},        // HTree
    {Quantity::CommAdded, Quantity::FlitsHorizontal},   // Horizontal
    {Quantity::CommAdded, Quantity::FlitsVertical},     // Vertical
    {Quantity::CommBypass, Quantity::FlitsBypass},      // Bypass
    {Quantity::CommBus, Quantity::FlitsBus},            // Bus
};

/** Flit size used by the interconnect traffic metrics. */
constexpr Bytes kFlitBytes = 8;

/** Number of flits needed to carry @p bytes (at least one). */
constexpr std::uint64_t
flitsFor(Bytes bytes)
{
    return bytes == 0 ? 1 : (bytes + kFlitBytes - 1) / kFlitBytes;
}

/** One topology node. */
struct TopoNode {
    NodeKind kind = NodeKind::Router;
    int bank = -1;     ///< owning bank id (-1 for the bus)
    int depth = 0;     ///< H-tree depth (0 = bank port)
    int index = 0;     ///< index within its depth row / tile id
    std::string name;
    /** Switch resource guarding added links at this node (kNoRes if none). */
    std::size_t switchRes = SIZE_MAX;
};

/** One bidirectional wire. */
struct TopoLink {
    int a = -1;
    int b = -1;
    LinkKind kind = LinkKind::HTree;
    double latencyNs = 0.0;     ///< hop latency
    double bytesPerNs = 1.0;    ///< bandwidth
    double pjPerByte = 0.0;     ///< transfer energy
    /** FIFO resources a transfer must occupy (wire + any switches). */
    std::vector<std::size_t> resources;
};

/** A computed route. */
struct Route {
    std::vector<int> links;      ///< link indices in path order
    double latencyNs = 0.0;      ///< sum of hop latencies
    double minBytesPerNs = 0.0;  ///< bottleneck bandwidth
    /** FIFO resources of every link (wires and switches), sorted and
     *  de-duplicated: what a transfer along the route holds. */
    std::vector<std::size_t> resources;
    bool sharedLink = false;     ///< crosses the bus or a bypass link

    bool valid() const { return minBytesPerNs > 0.0; }

    /** Wall time to move @p bytes along this route. */
    PicoSeconds
    transferTime(Bytes bytes) const
    {
        const double ns =
            latencyNs + static_cast<double>(bytes) / minBytesPerNs;
        return nsToPs(ns);
    }
};

/** Mutable interconnect graph. */
class Topology
{
  public:
    /** Add a node; @return its id. */
    int addNode(TopoNode node);

    /** Add a bidirectional link; @return its index. */
    int addLink(TopoLink link);

    const TopoNode &node(int id) const { return nodes_[id]; }
    const TopoLink &link(int idx) const { return links_[idx]; }
    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numLinks() const { return links_.size(); }

    /** Predicate selecting which link kinds a route may use. */
    using LinkFilter = std::function<bool(const TopoLink &)>;

    /**
     * Latency-shortest path from @p from to @p to using only links
     * accepted by @p filter (all links when null).
     *
     * @return an invalid Route (minBytesPerNs == 0) when unreachable.
     */
    Route route(int from, int to, const LinkFilter &filter = nullptr) const;

    /** Accrue moving @p bytes along @p route into @p ledger: each link's
     *  wire energy and flits, then the traffic totals. */
    void chargeTransfer(const Route &route, Bytes bytes,
                        BuildLedger &ledger) const;

  private:
    std::vector<TopoNode> nodes_;
    std::vector<TopoLink> links_;
    std::vector<std::vector<int>> adjacency_; ///< node -> link indices
};

} // namespace lergan

#endif // LERGAN_INTERCONNECT_TOPOLOGY_HH
