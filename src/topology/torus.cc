#include "src/topology/topology.hh"

#include <array>

#include "src/sim/log.hh"

namespace crnet {

template <typename F>
void
Topology::forEachNode(F&& f) const
{
    Odometer c{};
    for (NodeId id = 0; id < numNodes_; ++id) {
        f(id, c);
        for (std::uint32_t d = 0; d < n_ && ++c[d] == k_; ++d)
            c[d] = 0;
    }
}

Topology::Topology(TopologyKind kind, std::uint32_t k, std::uint32_t n)
    : kind_(kind), k_(k), n_(n)
{
    if (k < 2)
        fatal("topology radix must be >= 2");
    if (n < 1 || n > kMaxDims)
        fatal("topology dimensionality must be in [1, ", kMaxDims, "]");
    std::uint64_t nodes = 1;
    for (std::uint32_t d = 0; d < n; ++d)
        nodes *= k;
    if (nodes > (1ULL << 24))
        fatal("topology too large: ", nodes, " nodes");
    if (k > (1U << 16))
        fatal("topology radix must be <= ", 1U << 16, " (got ", k, ")");
    numNodes_ = static_cast<NodeId>(nodes);
    coord_.resize(static_cast<std::size_t>(numNodes_) * n_);
    std::size_t at = 0;
    forEachNode([&](NodeId, const Odometer& c) {
        for (std::uint32_t d = 0; d < n_; ++d)
            coord_[at++] = static_cast<std::uint16_t>(c[d]);
    });
}

Coordinates
Topology::coords(NodeId id) const
{
    Coordinates r;
    r.n = static_cast<std::uint8_t>(n_);
    for (std::uint32_t d = 0; d < n_; ++d)
        r.c[d] = static_cast<std::uint16_t>(coord(id, d));
    return r;
}

std::uint32_t
Topology::distance(NodeId from, NodeId to) const
{
    std::uint32_t hops = 0;
    for (std::uint32_t d = 0; d < n_; ++d) {
        const DimRoute r = dimRoute(from, to, d);
        if (r.plusMinimal)
            hops += r.plusHops;
        else if (r.minusMinimal)
            hops += r.minusHops;
    }
    return hops;
}

std::vector<NodeId>
Topology::neighborTable() const
{
    const bool wraps = kind_ == TopologyKind::Torus;
    std::array<NodeId, kMaxDims> stride{};
    for (std::uint32_t d = 0, s = 1; d < n_; ++d, s *= k_)
        stride[d] = s;
    std::vector<NodeId> table(static_cast<std::size_t>(numNodes_) *
                              numPorts());
    std::size_t at = 0;
    forEachNode([&](NodeId id, const Odometer& c) {
        for (std::uint32_t d = 0; d < n_; ++d) {
            const NodeId span = (k_ - 1) * stride[d];  // Wrap distance.
            table[at++] = c[d] + 1 < k_ ? id + stride[d]
                          : wraps       ? id - span
                                        : kInvalidNode;
            table[at++] = c[d] > 0 ? id - stride[d]
                          : wraps  ? id + span
                                   : kInvalidNode;
        }
    });
    return table;
}

TorusTopology::TorusTopology(std::uint32_t k, std::uint32_t n)
    : Topology(TopologyKind::Torus, k, n)
{
}

NodeId
TorusTopology::neighbor(NodeId node, PortId port) const
{
    const std::uint32_t d = portDim(port);
    if (d >= n_)
        panic("port ", port, " out of range for ", n_, " dimensions");
    Coordinates c = coords(node);
    if (portDir(port) == Direction::Plus)
        c[d] = static_cast<std::uint16_t>((c[d] + 1) % k_);
    else
        c[d] = static_cast<std::uint16_t>((c[d] + k_ - 1) % k_);
    return nodeId(c);
}

bool
TorusTopology::crossesDateline(NodeId node, PortId port) const
{
    const std::uint32_t d = portDim(port);
    const Coordinates c = coords(node);
    if (portDir(port) == Direction::Plus)
        return c[d] == k_ - 1;
    return c[d] == 0;
}

std::uint32_t
TorusTopology::diameter() const
{
    return n_ * (k_ / 2);
}

std::unique_ptr<Topology>
makeTopology(const SimConfig& cfg)
{
    switch (cfg.topology) {
      case TopologyKind::Torus:
        return std::make_unique<TorusTopology>(cfg.radixK,
                                               cfg.dimensionsN);
      case TopologyKind::Mesh:
        return std::make_unique<MeshTopology>(cfg.radixK,
                                              cfg.dimensionsN);
    }
    panic("bad TopologyKind in makeTopology");
}

} // namespace crnet
