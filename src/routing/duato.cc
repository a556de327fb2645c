#include "src/routing/routing.hh"

#include "src/sim/log.hh"

namespace crnet {

namespace {

void
shuffleTail(std::vector<Candidate>& out, std::size_t first, Rng& rng)
{
    for (std::size_t i = out.size(); i > first + 1; --i) {
        const std::size_t j =
            first + static_cast<std::size_t>(rng.below(i - first));
        std::swap(out[i - 1], out[j]);
    }
}

} // namespace

DuatoRouting::DuatoRouting(const Topology& topo, const FaultModel& faults,
                           std::uint32_t num_vcs)
    : RoutingAlgorithm(topo, faults, num_vcs),
      dor_(topo, faults,
           topo.kind() == TopologyKind::Torus ? 2u : 1u),
      escapeVcs_(topo.kind() == TopologyKind::Torus ? 2 : 1)
{
    if (num_vcs <= escapeVcs_)
        fatal("Duato routing needs more than ", escapeVcs_,
              " VCs on this topology (escape channels + >=1 adaptive)");
}

void
DuatoRouting::candidates(NodeId node, const WireFlit& head,
                         std::vector<Candidate>& out, Rng& rng) const
{
    // Adaptive class first: fully adaptive minimal on VCs
    // [escapeVcs_, numVcs).
    const std::size_t base = out.size();
    for (std::uint32_t d = 0; d < topo_.dims(); ++d) {
        const DimRoute r = topo_.dimRoute(node, head.dst, d);
        if (r.plusMinimal) {
            const PortId p = makePort(d, Direction::Plus);
            if (faults_.linkOk(node, p))
                appendVcRange(out, p, escapeVcs_,
                              static_cast<VcId>(numVcs_));
        }
        if (r.minusMinimal) {
            const PortId p = makePort(d, Direction::Minus);
            if (faults_.linkOk(node, p))
                appendVcRange(out, p, escapeVcs_,
                              static_cast<VcId>(numVcs_));
        }
    }
    shuffleTail(out, base, rng);

    // Escape class last: dimension-order routed; on tori the escape
    // VC is picked by the dateline class. Always available (Duato's
    // condition), so a blocked adaptive worm can drain deadlock-free.
    const PortId escape_port = dor_.dorPort(node, head);
    if (faults_.linkOk(node, escape_port)) {
        const VcId vc = topo_.kind() == TopologyKind::Torus
            ? static_cast<VcId>(
                  datelineClass(topo_, node, head.dst, escape_port))
            : static_cast<VcId>(0);
        out.push_back(Candidate{escape_port, vc, true, false});
    }
}

void
DuatoRouting::onTraverse(NodeId, PortId, WireFlit&) const
{
    // Escape VC classes are computed statelessly per hop.
}

bool
DuatoRouting::isEscapeVc(VcId vc) const
{
    return vc < escapeVcs_;
}

} // namespace crnet
