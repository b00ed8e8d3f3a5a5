#include "interconnect/topology.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace lergan {

int
Topology::addNode(TopoNode node)
{
    nodes_.push_back(std::move(node));
    adjacency_.emplace_back();
    return static_cast<int>(nodes_.size()) - 1;
}

int
Topology::addLink(TopoLink link)
{
    LERGAN_ASSERT(link.a >= 0 && link.a < static_cast<int>(nodes_.size()) &&
                      link.b >= 0 &&
                      link.b < static_cast<int>(nodes_.size()),
                  "addLink: endpoint out of range");
    LERGAN_ASSERT(link.latencyNs >= 0 && link.bytesPerNs > 0,
                  "addLink: invalid cost parameters");
    const int idx = static_cast<int>(links_.size());
    adjacency_[link.a].push_back(idx);
    adjacency_[link.b].push_back(idx);
    links_.push_back(std::move(link));
    return idx;
}

Route
Topology::route(int from, int to, const LinkFilter &filter) const
{
    LERGAN_ASSERT(from >= 0 && from < static_cast<int>(nodes_.size()) &&
                      to >= 0 && to < static_cast<int>(nodes_.size()),
                  "route: endpoint out of range");
    Route result;
    if (from == to) {
        result.minBytesPerNs = std::numeric_limits<double>::infinity();
        return result;
    }

    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(nodes_.size(), inf);
    std::vector<int> via(nodes_.size(), -1); // incoming link index
    using QEntry = std::pair<double, int>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;

    dist[from] = 0.0;
    queue.emplace(0.0, from);
    while (!queue.empty()) {
        auto [d, u] = queue.top();
        queue.pop();
        if (d > dist[u])
            continue;
        if (u == to)
            break;
        for (int link_idx : adjacency_[u]) {
            const TopoLink &l = links_[link_idx];
            if (filter && !filter(l))
                continue;
            const int v = l.a == u ? l.b : l.a;
            const double nd = d + l.latencyNs;
            if (nd < dist[v]) {
                dist[v] = nd;
                via[v] = link_idx;
                queue.emplace(nd, v);
            }
        }
    }

    if (dist[to] == inf)
        return result; // unreachable: invalid route

    // Walk back to collect the path.
    std::vector<int> reversed;
    int cur = to;
    while (cur != from) {
        const int link_idx = via[cur];
        reversed.push_back(link_idx);
        const TopoLink &l = links_[link_idx];
        cur = l.a == cur ? l.b : l.a;
    }
    result.links.assign(reversed.rbegin(), reversed.rend());

    result.minBytesPerNs = inf;
    for (int link_idx : result.links) {
        const TopoLink &l = links_[link_idx];
        result.latencyNs += l.latencyNs;
        result.minBytesPerNs = std::min(result.minBytesPerNs, l.bytesPerNs);
        result.resources.insert(result.resources.end(),
                                l.resources.begin(), l.resources.end());
        if (l.kind == LinkKind::Bus || l.kind == LinkKind::Bypass)
            result.sharedLink = true;
    }
    std::sort(result.resources.begin(), result.resources.end());
    result.resources.erase(
        std::unique(result.resources.begin(), result.resources.end()),
        result.resources.end());
    return result;
}

void
Topology::chargeTransfer(const Route &route, Bytes bytes,
                         BuildLedger &ledger) const
{
    const double n = static_cast<double>(bytes);
    for (int link_idx : route.links) {
        const TopoLink &l = links_[link_idx];
        const WireQuantities &wire =
            kWireQuantities[static_cast<std::size_t>(l.kind)];
        ledger.add(wire.energy, l.pjPerByte * n);
        ledger.add(wire.flits, static_cast<double>(flitsFor(bytes)));
    }
    ledger.add(Quantity::TrafficBytes, n);
    ledger.add(Quantity::TrafficByteHops,
               n * static_cast<double>(route.links.size()));
}

} // namespace lergan
