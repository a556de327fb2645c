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

PlanarAdaptiveRouting::PlanarAdaptiveRouting(const Topology& topo,
                                             const FaultModel& faults,
                                             std::uint32_t num_vcs)
    : RoutingAlgorithm(topo, faults, num_vcs)
{
    if (topo.kind() != TopologyKind::Mesh || topo.dims() != 2)
        fatal("planar-adaptive routing is implemented for 2D meshes");
    if (num_vcs < 3)
        fatal("planar-adaptive routing needs >= 3 VCs "
              "(2 x-classes + y channels)");
}

void
PlanarAdaptiveRouting::candidates(NodeId node,
                                  const WireFlit& head,
                                  std::vector<Candidate>& out,
                                  Rng& rng) const
{
    // 2D planar-adaptive routing (Chien & Kim), specialized to the
    // single plane A0 a 2D mesh has. Traffic is split into two
    // virtual subnetworks by the sign of the remaining y offset:
    //
    //   increasing network (dy >= 0): x channels on VC 0, y+ channels
    //   decreasing network (dy < 0):  x channels on VC 1, y- channels
    //
    // y channels use VCs [2, numVcs) as lanes. Within one subnetwork
    // a packet moves monotonically (one x direction on a mesh, one y
    // direction), so channel dependencies cannot cycle; the two
    // subnetworks use disjoint VC classes on x and disjoint physical
    // channels on y.
    const DimRoute x = topo_.dimRoute(node, head.dst, 0);
    const DimRoute y = topo_.dimRoute(node, head.dst, 1);
    const bool increasing = !y.minusMinimal;  // dy >= 0.
    const VcId x_vc = increasing ? 0 : 1;
    const std::size_t base = out.size();

    PortId x_port = kInvalidPort;
    if (x.plusMinimal)
        x_port = makePort(0, Direction::Plus);
    else if (x.minusMinimal)
        x_port = makePort(0, Direction::Minus);
    if (x_port != kInvalidPort && faults_.linkOk(node, x_port))
        out.push_back(Candidate{x_port, x_vc, false, false});

    PortId y_port = kInvalidPort;
    if (y.plusMinimal)
        y_port = makePort(1, Direction::Plus);
    else if (y.minusMinimal)
        y_port = makePort(1, Direction::Minus);
    if (y_port != kInvalidPort && faults_.linkOk(node, y_port))
        appendVcRange(out, y_port, 2, static_cast<VcId>(numVcs_));

    shuffleTail(out, base, rng);
}

} // namespace crnet
