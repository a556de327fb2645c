#include "src/routing/routing.hh"

#include "src/sim/log.hh"

namespace crnet {

/**
 * Dateline VC class for one hop of a minimal path in one dimension.
 *
 * Each torus dimension is a ring whose "dateline" is the wraparound
 * link (k-1 -> 0 in Plus direction, 0 -> k-1 in Minus). VCs are split
 * into class 0 and class 1. The rule, computable statelessly at every
 * hop, is:
 *
 *   class 0  while the remaining path still crosses the dateline
 *            *after* this hop;
 *   class 1  from the crossing hop onward (and for paths that never
 *            cross at all).
 *
 * Why this is deadlock-free: class-0 VCs are never used on the
 * dateline link (a crossing hop is class 1), so class-0 dependencies
 * cannot close the ring. A worm in class 1 never crosses the dateline
 * again (minimal paths wrap at most once), so no class-1 dependency
 * enters the dateline link from its ring predecessor, and the class-1
 * subgraph cannot close the ring either. Routing never moves a worm
 * from class 1 back to class 0 within a dimension, so there are no
 * mixed-class cycles.
 */
std::uint8_t
datelineClass(const Topology& topo, NodeId node, NodeId dst, PortId port)
{
    if (topo.kind() != TopologyKind::Torus)
        return 0;
    const std::uint32_t d = portDim(port);
    const std::uint32_t k = topo.radix();
    const std::uint32_t a = topo.coord(node, d);
    const std::uint32_t b = topo.coord(dst, d);
    bool cross_later = false;
    if (portDir(port) == Direction::Plus) {
        const std::uint32_t after = a + 1 == k ? 0 : a + 1;
        cross_later = after != b && b < after;
    } else {
        const std::uint32_t after = a == 0 ? k - 1 : a - 1;
        cross_later = after != b && b > after;
    }
    return cross_later ? 0 : 1;
}

DorRouting::DorRouting(const Topology& topo, const FaultModel& faults,
                       std::uint32_t num_vcs)
    : RoutingAlgorithm(topo, faults, num_vcs)
{
    if (topo.kind() == TopologyKind::Torus) {
        // Two dateline classes; VCs split evenly between them (an odd
        // extra VC joins class 1, which carries never-crossing paths
        // too and so sees more load).
        lanesPerClass_ = num_vcs >= 2 ? num_vcs / 2 : 0;
    } else {
        lanesPerClass_ = num_vcs;
    }
}

PortId
DorRouting::dorPort(NodeId node, const WireFlit& head) const
{
    for (std::uint32_t d = 0; d < topo_.dims(); ++d) {
        const DimRoute r = topo_.dimRoute(node, head.dst, d);
        if (r.done())
            continue;
        // Shorter way around; ties go Plus. The choice depends only on
        // (node, dst) in this dimension, so it is consistent along the
        // path.
        if (r.plusMinimal)
            return makePort(d, Direction::Plus);
        return makePort(d, Direction::Minus);
    }
    panic("DorRouting::dorPort called with head at destination");
}

void
DorRouting::candidates(NodeId node, const WireFlit& head,
                       std::vector<Candidate>& out, Rng& rng) const
{
    const PortId port = dorPort(node, head);
    if (!faults_.linkOk(node, port))
        return;  // DOR has no alternative; the worm waits (or CR kills).

    VcId first = 0;
    VcId lanes = static_cast<VcId>(numVcs_);
    if (topo_.kind() == TopologyKind::Torus) {
        if (lanesPerClass_ == 0) {
            // Single VC on a torus: only legal under CR, which
            // provides deadlock recovery; dateline classes are moot.
            first = 0;
            lanes = 1;
        } else {
            const std::uint8_t cls =
                datelineClass(topo_, node, head.dst, port);
            first = static_cast<VcId>(cls == 0 ? 0 : lanesPerClass_);
            lanes = static_cast<VcId>(
                cls == 0 ? lanesPerClass_ : numVcs_ - lanesPerClass_);
        }
    }
    // Lanes within a class are equivalent; rotate the starting lane to
    // spread worms across them.
    const VcId start = static_cast<VcId>(rng.below(lanes));
    for (VcId i = 0; i < lanes; ++i) {
        out.push_back(Candidate{
            port, static_cast<VcId>(first + (start + i) % lanes),
            false, false});
    }
}

void
DorRouting::onTraverse(NodeId, PortId, WireFlit&) const
{
    // Dateline classes are computed statelessly per hop; the header
    // carries no DOR routing state.
}

bool
DorRouting::selfDeadlockFree() const
{
    if (topo_.kind() == TopologyKind::Torus)
        return lanesPerClass_ > 0;  // Needs both dateline classes.
    return true;
}

} // namespace crnet
