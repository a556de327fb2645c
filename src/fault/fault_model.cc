#include "src/fault/fault_model.hh"

#include "src/sim/log.hh"

namespace crnet {

FaultModel::FaultModel(const Topology& topo, double transient_rate,
                       Rng rng)
    : topo_(topo), transientRate_(transient_rate), rng_(rng),
      dead_(static_cast<std::size_t>(topo.numNodes()) * topo.numPorts(),
            false)
{
    if (transient_rate < 0.0 || transient_rate > 1.0)
        fatal("transient fault rate must be in [0, 1]");
}

std::size_t
FaultModel::index(NodeId node, PortId port) const
{
    return static_cast<std::size_t>(node) * topo_.numPorts() + port;
}

std::uint32_t
FaultModel::healthyDegree(NodeId node) const
{
    std::uint32_t degree = 0;
    for (PortId p = 0; p < topo_.numPorts(); ++p) {
        if (topo_.neighbor(node, p) != kInvalidNode && linkOk(node, p))
            ++degree;
    }
    return degree;
}

std::uint32_t
FaultModel::injectPermanentFaults(std::uint32_t count,
                                  std::uint32_t min_degree,
                                  bool allow_partial)
{
    std::uint32_t injected = 0;
    std::uint32_t attempts = 0;
    const std::uint32_t max_attempts = 1000 * (count + 1);
    while (injected < count) {
        if (++attempts > max_attempts) {
            if (allow_partial)
                return injected;
            fatal("could not place ", count, " permanent faults while "
                  "keeping node degree >= ", min_degree);
        }
        const auto node =
            static_cast<NodeId>(rng_.below(topo_.numNodes()));
        const auto port =
            static_cast<PortId>(rng_.below(topo_.numPorts()));
        const NodeId nbr = topo_.neighbor(node, port);
        if (nbr == kInvalidNode)
            continue;  // Mesh boundary: no physical link there.
        if (!linkOk(node, port))
            continue;  // Already dead.
        // Keep both endpoints above the degree floor after removing
        // one port from each (both directions of the physical link).
        if (healthyDegree(node) <= min_degree ||
            healthyDegree(nbr) <= min_degree) {
            continue;
        }
        dead_[index(node, port)] = true;
        dead_[index(nbr, oppositePort(port))] = true;
        ++injected;
        ++permanent_;
    }
    return injected;
}

void
FaultModel::killDirectedLink(NodeId node, PortId port)
{
    if (topo_.neighbor(node, port) == kInvalidNode)
        fatal("cannot kill nonexistent link (node ", node, ", port ",
              port, ")");
    dead_[index(node, port)] = true;
}

void
FaultModel::killLink(NodeId node, PortId port)
{
    const NodeId nbr = topo_.neighbor(node, port);
    if (nbr == kInvalidNode)
        fatal("cannot kill nonexistent link (node ", node, ", port ",
              port, ")");
    dead_[index(node, port)] = true;
    dead_[index(nbr, oppositePort(port))] = true;
}

void
FaultModel::reviveDirectedLink(NodeId node, PortId port)
{
    if (topo_.neighbor(node, port) == kInvalidNode)
        fatal("cannot revive nonexistent link (node ", node, ", port ",
              port, ")");
    dead_[index(node, port)] = false;
}

void
FaultModel::reviveLink(NodeId node, PortId port)
{
    const NodeId nbr = topo_.neighbor(node, port);
    if (nbr == kInvalidNode)
        fatal("cannot revive nonexistent link (node ", node, ", port ",
              port, ")");
    dead_[index(node, port)] = false;
    dead_[index(nbr, oppositePort(port))] = false;
}

bool
FaultModel::linkOk(NodeId node, PortId port) const
{
    return !dead_[index(node, port)];
}

void
FaultModel::setBurstRate(double rate)
{
    if (rate < 0.0 || rate > 1.0)
        fatal("burst fault rate must be in [0, 1]");
    burstRate_ = rate;
}

double
FaultModel::effectiveTransientRate() const
{
    return burstRate_ > transientRate_ ? burstRate_ : transientRate_;
}

bool
FaultModel::maybeCorrupt(WireFlit& flit)
{
    const double rate = effectiveTransientRate();
    if (rate <= 0.0 || !rng_.chance(rate))
        return false;
    // Scramble the payload without touching the stored CRC: the
    // receiver's checksum check then fails, which is the hardware
    // detection path. The explicit flag backs assertions in tests.
    flit.payload ^= static_cast<std::uint32_t>(0xdeadbeefcafef00dULL ^
                                               rng_.next());
    flit.corrupted = true;
    ++corruptions_;
    return true;
}

std::uint32_t
FaultModel::deadDirectedCount() const
{
    std::uint32_t n = 0;
    for (const bool d : dead_)
        n += d ? 1 : 0;
    return n;
}

std::vector<DeadLink>
FaultModel::deadLinks() const
{
    std::vector<DeadLink> out;
    for (NodeId node = 0; node < topo_.numNodes(); ++node) {
        for (PortId port = 0; port < topo_.numPorts(); ++port) {
            if (!dead_[index(node, port)])
                continue;
            const NodeId nbr = topo_.neighbor(node, port);
            DeadLink d;
            d.node = node;
            d.port = port;
            d.kind = (nbr != kInvalidNode &&
                      !linkOk(nbr, oppositePort(port)))
                         ? DeadLinkKind::Bidirectional
                         : DeadLinkKind::Directed;
            out.push_back(d);
        }
    }
    return out;
}

} // namespace crnet
