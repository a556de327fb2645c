#include "src/routing/routing.hh"

#include "src/sim/log.hh"

namespace crnet {

void
RoutingAlgorithm::onTraverse(NodeId, PortId, WireFlit&) const
{
}

void
RoutingAlgorithm::onInject(NodeId, WireFlit& head) const
{
    head.vcClass = 0;
}

bool
RoutingAlgorithm::isEscapeVc(VcId) const
{
    return false;
}

void
RoutingAlgorithm::appendVcRange(std::vector<Candidate>& out, PortId port,
                                VcId first, VcId last, bool escape,
                                bool misroute) const
{
    for (VcId vc = first; vc < last; ++vc)
        out.push_back(Candidate{port, vc, escape, misroute});
}

std::unique_ptr<RoutingAlgorithm>
makeRouting(const SimConfig& cfg, const Topology& topo,
            const FaultModel& faults)
{
    switch (cfg.routing) {
      case RoutingKind::DimensionOrder:
        return std::make_unique<DorRouting>(topo, faults, cfg.numVcs);
      case RoutingKind::MinimalAdaptive:
        return std::make_unique<MinimalAdaptiveRouting>(topo, faults,
                                                        cfg.numVcs);
      case RoutingKind::Duato:
        return std::make_unique<DuatoRouting>(topo, faults, cfg.numVcs);
      case RoutingKind::WestFirst:
        return std::make_unique<TurnModelRouting>(
            topo, faults, cfg.numVcs,
            TurnModelRouting::Variant::WestFirst);
      case RoutingKind::NegativeFirst:
        return std::make_unique<TurnModelRouting>(
            topo, faults, cfg.numVcs,
            TurnModelRouting::Variant::NegativeFirst);
      case RoutingKind::PlanarAdaptive:
        return std::make_unique<PlanarAdaptiveRouting>(topo, faults,
                                                       cfg.numVcs);
    }
    panic("bad RoutingKind in makeRouting");
}

} // namespace crnet
