#include "src/routing/routing.hh"

#include "src/sim/log.hh"

namespace crnet {

namespace {

/** Fisher-Yates shuffle of candidates in [first, out.size()). */
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

MinimalAdaptiveRouting::MinimalAdaptiveRouting(const Topology& topo,
                                               const FaultModel& faults,
                                               std::uint32_t num_vcs)
    : RoutingAlgorithm(topo, faults, num_vcs)
{
}

void
MinimalAdaptiveRouting::candidates(NodeId node,
                                   const WireFlit& head,
                                   std::vector<Candidate>& out,
                                   Rng& rng) const
{
    const std::size_t base = out.size();
    bool minimal_port[2 * kMaxDims] = {};

    // Every minimal direction in every unfinished dimension, on every
    // VC, is a candidate. Order is randomized so worms spread across
    // the productive channels (the router takes the first free one).
    for (std::uint32_t d = 0; d < topo_.dims(); ++d) {
        const DimRoute r = topo_.dimRoute(node, head.dst, d);
        if (r.plusMinimal) {
            const PortId p = makePort(d, Direction::Plus);
            minimal_port[p] = true;
            if (faults_.linkOk(node, p))
                appendVcRange(out, p, 0, static_cast<VcId>(numVcs_));
        }
        if (r.minusMinimal) {
            const PortId p = makePort(d, Direction::Minus);
            minimal_port[p] = true;
            if (faults_.linkOk(node, p))
                appendVcRange(out, p, 0, static_cast<VcId>(numVcs_));
        }
    }
    shuffleTail(out, base, rng);

    // Non-minimal options, appended after all minimal ones, are only
    // offered while the header still has misroute budget (granted by
    // the injector on FCR retries around permanent faults). CR's kill
    // mechanism keeps this deadlock-free; the budget bounds livelock.
    if (head.misrouteBudget > 0) {
        const std::size_t mis_base = out.size();
        for (PortId p = 0; p < topo_.numPorts(); ++p) {
            if (minimal_port[p])
                continue;
            if (topo_.neighbor(node, p) == kInvalidNode)
                continue;
            if (!faults_.linkOk(node, p))
                continue;
            for (VcId vc = 0; vc < numVcs_; ++vc)
                out.push_back(Candidate{p, vc, false, true});
        }
        shuffleTail(out, mis_base, rng);
    }
}

} // namespace crnet
