/**
 * @file
 * Abstract direct-network topology: k-ary n-cubes (torus) and meshes.
 *
 * Port convention: a router has 2*n network ports; port 2*d goes in the
 * increasing ("plus") direction of dimension d, port 2*d+1 in the
 * decreasing ("minus") direction. Injection/ejection are handled by the
 * network interface, not by these ports.
 */

#ifndef CRNET_TOPOLOGY_TOPOLOGY_HH
#define CRNET_TOPOLOGY_TOPOLOGY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/config.hh"
#include "src/sim/types.hh"
#include "src/topology/coordinates.hh"

namespace crnet {

/** Direction along one dimension. */
enum class Direction : std::uint8_t { Plus = 0, Minus = 1 };

/** Compose a port id from dimension and direction. */
inline PortId
makePort(std::uint32_t dim, Direction dir)
{
    return static_cast<PortId>(2 * dim +
                               (dir == Direction::Minus ? 1 : 0));
}

/** Dimension of a network port. */
inline std::uint32_t
portDim(PortId port)
{
    return port / 2;
}

/** Direction of a network port. */
inline Direction
portDir(PortId port)
{
    return (port % 2) ? Direction::Minus : Direction::Plus;
}

/** Reverse port: the port on the neighbor that points back at us. */
inline PortId
oppositePort(PortId port)
{
    return static_cast<PortId>(port ^ 1);
}

/** Minimal-routing options within one dimension. */
struct DimRoute
{
    bool plusMinimal = false;   //!< Moving + is on a minimal path.
    bool minusMinimal = false;  //!< Moving - is on a minimal path.
    std::uint32_t plusHops = 0;   //!< Hops remaining if we go +.
    std::uint32_t minusHops = 0;  //!< Hops remaining if we go -.

    bool done() const { return !plusMinimal && !minusMinimal; }
};

/**
 * A direct k-ary n-cube network graph. Immutable once constructed;
 * link fault state lives in the fault model / network, not here.
 *
 * Every node's coordinates sit in a table built once at construction
 * by an odometer walk, so coordinate lookups and dimRoute() do no
 * division.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    TopologyKind kind() const { return kind_; }
    std::uint32_t radix() const { return k_; }
    std::uint32_t dims() const { return n_; }
    NodeId numNodes() const { return numNodes_; }
    /** Network ports per router (excludes injection/ejection). */
    PortId numPorts() const { return static_cast<PortId>(2 * n_); }

    Coordinates coords(NodeId id) const;
    NodeId nodeId(const Coordinates& c) const { return toNodeId(c, k_); }

    /** Coordinate of `id` in dimension `dim` (table lookup). */
    std::uint32_t coord(NodeId id, std::uint32_t dim) const
    {
        return coord_[static_cast<std::size_t>(id) * n_ + dim];
    }

    /**
     * Neighbor of `node` through `port`, or kInvalidNode when the port
     * leaves the network (mesh boundary).
     */
    virtual NodeId neighbor(NodeId node, PortId port) const = 0;

    /**
     * neighbor() for every node and network port, as one table:
     * entry `node * numPorts() + port`. Built by coordinate
     * arithmetic in one pass (no virtual call or division per entry),
     * for hot paths that look neighbors up per flit.
     */
    std::vector<NodeId> neighborTable() const;

    /**
     * Minimal-path options in dimension `dim` when standing at `from`
     * heading for `to`. On a torus with delta == k/2 both directions
     * can be minimal.
     */
    DimRoute dimRoute(NodeId from, NodeId to, std::uint32_t dim) const
    {
        const std::uint32_t a = coord(from, dim);
        const std::uint32_t b = coord(to, dim);
        DimRoute r;
        if (a == b)
            return r;
        if (kind_ == TopologyKind::Torus) {
            const std::uint32_t plus = b > a ? b - a : b + k_ - a;
            const std::uint32_t minus = k_ - plus;
            r.plusHops = plus;
            r.minusHops = minus;
            r.plusMinimal = plus <= minus;
            r.minusMinimal = minus <= plus;
        } else if (b > a) {
            r.plusMinimal = true;
            r.plusHops = b - a;
        } else {
            r.minusMinimal = true;
            r.minusHops = a - b;
        }
        return r;
    }

    /** Minimal hop count between two nodes. */
    std::uint32_t distance(NodeId from, NodeId to) const;

    /**
     * True when traversing `port` from `node` crosses the dateline of
     * its dimension (the wraparound link). Always false on meshes.
     * Used by DOR/Duato for dateline virtual-channel selection.
     */
    virtual bool crossesDateline(NodeId node, PortId port) const = 0;

    /** Longest minimal route in the network (hops). */
    virtual std::uint32_t diameter() const = 0;

  protected:
    Topology(TopologyKind kind, std::uint32_t k, std::uint32_t n);

    TopologyKind kind_;
    std::uint32_t k_;
    std::uint32_t n_;
    NodeId numNodes_;

  private:
    using Odometer = std::array<std::uint32_t, kMaxDims>;

    /**
     * Call `f(id, c)` for every node in id order, `c` its coordinates:
     * an odometer over n counters, so no division.
     */
    template <typename F>
    void forEachNode(F&& f) const;

    std::vector<std::uint16_t> coord_;  //!< [node][dim].
};

/** k-ary n-cube with wraparound links. */
class TorusTopology : public Topology
{
  public:
    TorusTopology(std::uint32_t k, std::uint32_t n);

    NodeId neighbor(NodeId node, PortId port) const override;
    bool crossesDateline(NodeId node, PortId port) const override;
    std::uint32_t diameter() const override;
};

/** k-ary n-dimensional mesh (no wraparound). */
class MeshTopology : public Topology
{
  public:
    MeshTopology(std::uint32_t k, std::uint32_t n);

    NodeId neighbor(NodeId node, PortId port) const override;
    bool crossesDateline(NodeId, PortId) const override { return false; }
    std::uint32_t diameter() const override;
};

/** Factory from configuration. */
std::unique_ptr<Topology> makeTopology(const SimConfig& cfg);

} // namespace crnet

#endif // CRNET_TOPOLOGY_TOPOLOGY_HH
