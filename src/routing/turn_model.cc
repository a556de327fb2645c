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

TurnModelRouting::TurnModelRouting(const Topology& topo,
                                   const FaultModel& faults,
                                   std::uint32_t num_vcs,
                                   Variant variant)
    : RoutingAlgorithm(topo, faults, num_vcs), variant_(variant)
{
    if (topo.kind() != TopologyKind::Mesh)
        fatal("turn-model routing is deadlock-free only on meshes");
    if (topo.dims() != 2)
        fatal("turn-model routing is implemented for 2D meshes");
}

void
TurnModelRouting::candidates(NodeId node, const WireFlit& head,
                             std::vector<Candidate>& out, Rng& rng) const
{
    const DimRoute x = topo_.dimRoute(node, head.dst, 0);
    const DimRoute y = topo_.dimRoute(node, head.dst, 1);
    const std::size_t base = out.size();

    auto add = [&](PortId p) {
        if (faults_.linkOk(node, p))
            appendVcRange(out, p, 0, static_cast<VcId>(numVcs_));
    };

    if (variant_ == Variant::WestFirst) {
        // All West (x-) hops first, deterministically; afterwards the
        // worm may turn adaptively among {x+, y+, y-} (the prohibited
        // turns are exactly those into West).
        if (x.minusMinimal) {
            add(makePort(0, Direction::Minus));
            return;
        }
        if (x.plusMinimal)
            add(makePort(0, Direction::Plus));
        if (y.plusMinimal)
            add(makePort(1, Direction::Plus));
        if (y.minusMinimal)
            add(makePort(1, Direction::Minus));
        shuffleTail(out, base, rng);
        return;
    }

    // NegativeFirst: all negative hops first (adaptively among x-,
    // y-), then all positive hops (adaptively among x+, y+). Turns
    // from a positive direction into a negative one never occur.
    const bool negative_remaining = x.minusMinimal || y.minusMinimal;
    if (negative_remaining) {
        if (x.minusMinimal)
            add(makePort(0, Direction::Minus));
        if (y.minusMinimal)
            add(makePort(1, Direction::Minus));
    } else {
        if (x.plusMinimal)
            add(makePort(0, Direction::Plus));
        if (y.plusMinimal)
            add(makePort(1, Direction::Plus));
    }
    shuffleTail(out, base, rng);
}

} // namespace crnet
