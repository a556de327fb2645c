#include "src/topology/topology.hh"

#include "src/sim/log.hh"

namespace crnet {

MeshTopology::MeshTopology(std::uint32_t k, std::uint32_t n)
    : Topology(TopologyKind::Mesh, k, n)
{
}

NodeId
MeshTopology::neighbor(NodeId node, PortId port) const
{
    const std::uint32_t d = portDim(port);
    if (d >= n_)
        panic("port ", port, " out of range for ", n_, " dimensions");
    Coordinates c = coords(node);
    if (portDir(port) == Direction::Plus) {
        if (c[d] == k_ - 1)
            return kInvalidNode;
        c[d] = static_cast<std::uint16_t>(c[d] + 1);
    } else {
        if (c[d] == 0)
            return kInvalidNode;
        c[d] = static_cast<std::uint16_t>(c[d] - 1);
    }
    return nodeId(c);
}

std::uint32_t
MeshTopology::diameter() const
{
    return n_ * (k_ - 1);
}

} // namespace crnet
