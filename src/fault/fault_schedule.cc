#include "src/fault/fault_schedule.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/sim/log.hh"

namespace crnet {

namespace {

/**
 * Local view of which directed channels a schedule has already
 * committed to killing, so stochastic placement can respect the same
 * degree floor injectPermanentFaults uses — without touching the
 * live FaultModel (events have not fired yet).
 */
class PlannedDeaths
{
  public:
    explicit PlannedDeaths(const Topology& topo)
        : topo_(topo),
          dead_(static_cast<std::size_t>(topo.numNodes()) *
                    topo.numPorts(),
                false)
    {}

    bool dead(NodeId node, PortId port) const
    {
        return dead_[idx(node, port)];
    }

    void killDirected(NodeId node, PortId port)
    {
        dead_[idx(node, port)] = true;
    }

    void killBoth(NodeId node, PortId port)
    {
        dead_[idx(node, port)] = true;
        dead_[idx(topo_.neighbor(node, port), oppositePort(port))] =
            true;
    }

    std::uint32_t healthyDegree(NodeId node) const
    {
        std::uint32_t degree = 0;
        for (PortId p = 0; p < topo_.numPorts(); ++p) {
            if (topo_.neighbor(node, p) != kInvalidNode &&
                !dead(node, p)) {
                ++degree;
            }
        }
        return degree;
    }

  private:
    std::size_t idx(NodeId node, PortId port) const
    {
        return static_cast<std::size_t>(node) * topo_.numPorts() +
               port;
    }

    const Topology& topo_;
    std::vector<bool> dead_;
};

constexpr std::uint32_t kMinDegree = 2;

} // namespace

std::string
toString(const FaultEvent& e)
{
    std::ostringstream os;
    os << "cycle " << e.at << ": ";
    switch (e.kind) {
      case FaultEventKind::LinkDeath:
        os << "kill_link node " << e.node << " port " << e.port;
        break;
      case FaultEventKind::DirectedLinkDeath:
        os << "kill_directed node " << e.node << " port " << e.port;
        break;
      case FaultEventKind::RouterFailStop:
        os << "kill_router node " << e.node;
        break;
      case FaultEventKind::LinkRepair:
        os << "repair_link node " << e.node << " port " << e.port;
        break;
      case FaultEventKind::BurstStart:
        os << "burst_start rate " << e.rate;
        break;
      case FaultEventKind::BurstEnd:
        os << "burst_end";
        break;
    }
    return os.str();
}

void
FaultSchedule::add(const FaultEvent& e)
{
    if (cursor_ != 0)
        panic("FaultSchedule modified after events started firing");
    events_.push_back(e);
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
}

void
FaultSchedule::merge(const FaultSchedule& other)
{
    if (cursor_ != 0)
        panic("FaultSchedule modified after events started firing");
    events_.insert(events_.end(), other.events_.begin(),
                   other.events_.end());
    shortfall_ += other.shortfall_;
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
}

void
FaultSchedule::collectDue(Cycle now, std::vector<FaultEvent>& out)
{
    while (cursor_ < events_.size() && events_[cursor_].at <= now)
        out.push_back(events_[cursor_++]);
}

Cycle
FaultSchedule::firstEventCycle() const
{
    return events_.empty() ? 0 : events_.front().at;
}

FaultSchedule
FaultSchedule::fromConfig(const SimConfig& cfg, const Topology& topo,
                          Rng rng)
{
    FaultSchedule sched;

    // Fault window: default to the measurement phase so warmup
    // establishes steady state before the first failure.
    Cycle ws = cfg.faultWindowStart;
    Cycle we = cfg.faultWindowEnd;
    if (we == 0) {
        if (ws == 0)
            ws = cfg.warmupCycles;
        we = cfg.warmupCycles + cfg.measureCycles;
    }
    if (we <= ws)
        we = ws + 1;

    const auto draw_cycle = [&]() -> Cycle {
        return ws + rng.below(we - ws);
    };

    PlannedDeaths planned(topo);

    const auto place_link = [&](bool directed) -> bool {
        std::uint32_t attempts = 0;
        while (++attempts <= 1000) {
            const auto node =
                static_cast<NodeId>(rng.below(topo.numNodes()));
            const auto port =
                static_cast<PortId>(rng.below(topo.numPorts()));
            const NodeId nbr = topo.neighbor(node, port);
            if (nbr == kInvalidNode || planned.dead(node, port))
                continue;
            if (planned.healthyDegree(node) <= kMinDegree ||
                planned.healthyDegree(nbr) <= kMinDegree) {
                continue;
            }
            FaultEvent e;
            e.at = draw_cycle();
            e.kind = directed ? FaultEventKind::DirectedLinkDeath
                              : FaultEventKind::LinkDeath;
            e.node = node;
            e.port = port;
            sched.events_.push_back(e);
            if (directed)
                planned.killDirected(node, port);
            else
                planned.killBoth(node, port);
            if (cfg.linkRepairAfter > 0) {
                FaultEvent r;
                r.at = e.at + cfg.linkRepairAfter;
                r.kind = FaultEventKind::LinkRepair;
                r.node = node;
                r.port = port;
                sched.events_.push_back(r);
            }
            return true;
        }
        return false;
    };

    for (std::uint32_t i = 0; i < cfg.dynamicLinkKills; ++i) {
        if (!place_link(false))
            ++sched.shortfall_;
    }
    for (std::uint32_t i = 0; i < cfg.dynamicDirectedKills; ++i) {
        if (!place_link(true))
            ++sched.shortfall_;
    }

    for (std::uint32_t i = 0; i < cfg.dynamicRouterKills; ++i) {
        std::uint32_t attempts = 0;
        bool placed = false;
        while (!placed && ++attempts <= 1000) {
            const auto node =
                static_cast<NodeId>(rng.below(topo.numNodes()));
            // Every neighbor must keep its degree floor after losing
            // all channels to the failed router; the dead router's
            // own degree no longer matters (its NIC goes silent).
            bool ok = planned.healthyDegree(node) > 0;
            for (PortId p = 0; ok && p < topo.numPorts(); ++p) {
                const NodeId nbr = topo.neighbor(node, p);
                if (nbr == kInvalidNode || nbr == node ||
                    planned.dead(node, p)) {
                    continue;
                }
                std::uint32_t lost = 0;
                for (PortId q = 0; q < topo.numPorts(); ++q) {
                    if (topo.neighbor(nbr, q) == node &&
                        !planned.dead(nbr, q)) {
                        ++lost;
                    }
                }
                if (planned.healthyDegree(nbr) < kMinDegree + lost)
                    ok = false;
            }
            if (!ok)
                continue;
            FaultEvent e;
            e.at = draw_cycle();
            e.kind = FaultEventKind::RouterFailStop;
            e.node = node;
            sched.events_.push_back(e);
            for (PortId p = 0; p < topo.numPorts(); ++p) {
                if (topo.neighbor(node, p) != kInvalidNode &&
                    !planned.dead(node, p)) {
                    planned.killBoth(node, p);
                }
            }
            placed = true;
        }
        if (!placed)
            ++sched.shortfall_;
    }

    if (cfg.burstRate > 0.0 && cfg.burstLen > 0) {
        FaultEvent b;
        b.at = cfg.burstStart > 0 ? cfg.burstStart : ws;
        b.kind = FaultEventKind::BurstStart;
        b.rate = cfg.burstRate;
        sched.events_.push_back(b);
        FaultEvent e;
        e.at = b.at + cfg.burstLen;
        e.kind = FaultEventKind::BurstEnd;
        sched.events_.push_back(e);
    }

    std::stable_sort(sched.events_.begin(), sched.events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });

    if (!cfg.faultScenario.empty())
        sched.merge(fromFile(cfg.faultScenario, topo));

    return sched;
}

FaultSchedule
FaultSchedule::fromFile(const std::string& path, const Topology& topo)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault scenario file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromString(text.str(), topo, path);
}

FaultSchedule
FaultSchedule::fromString(const std::string& text, const Topology& topo,
                          const std::string& where)
{
    FaultSchedule sched;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;

    const auto bad = [&](const std::string& why) {
        fatal("fault scenario ", where, ":", lineno, ": ", why,
              " in '", line, "'");
    };
    const auto check_link = [&](std::uint64_t node,
                                std::uint64_t port) {
        if (node >= topo.numNodes())
            bad("node out of range");
        if (port >= topo.numPorts())
            bad("port out of range");
        if (topo.neighbor(static_cast<NodeId>(node),
                          static_cast<PortId>(port)) == kInvalidNode) {
            bad("no physical link at that (node, port)");
        }
    };

    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        std::string body =
            hash == std::string::npos ? line : line.substr(0, hash);
        std::istringstream ls(body);
        Cycle at = 0;
        std::string verb;
        if (!(ls >> at >> verb)) {
            // Blank or comment-only line.
            std::istringstream probe(body);
            std::string any;
            if (probe >> any)
                bad("expected '<cycle> <event> <args...>'");
            continue;
        }

        FaultEvent e;
        e.at = at;
        if (verb == "kill_link" || verb == "kill_directed" ||
            verb == "repair_link") {
            std::uint64_t node = 0;
            std::uint64_t port = 0;
            if (!(ls >> node >> port))
                bad("expected '<node> <port>'");
            check_link(node, port);
            e.node = static_cast<NodeId>(node);
            e.port = static_cast<PortId>(port);
            e.kind = verb == "kill_link"
                         ? FaultEventKind::LinkDeath
                         : verb == "kill_directed"
                               ? FaultEventKind::DirectedLinkDeath
                               : FaultEventKind::LinkRepair;
            sched.events_.push_back(e);
        } else if (verb == "kill_router") {
            std::uint64_t node = 0;
            if (!(ls >> node))
                bad("expected '<node>'");
            if (node >= topo.numNodes())
                bad("node out of range");
            e.node = static_cast<NodeId>(node);
            e.kind = FaultEventKind::RouterFailStop;
            sched.events_.push_back(e);
        } else if (verb == "burst") {
            double rate = 0.0;
            std::uint64_t len = 0;
            if (!(ls >> rate >> len))
                bad("expected '<rate> <cycles>'");
            if (rate < 0.0 || rate > 1.0)
                bad("rate must be in [0, 1]");
            if (len == 0)
                bad("burst length must be > 0");
            e.kind = FaultEventKind::BurstStart;
            e.rate = rate;
            sched.events_.push_back(e);
            FaultEvent end;
            end.at = at + len;
            end.kind = FaultEventKind::BurstEnd;
            sched.events_.push_back(end);
        } else {
            bad("unknown event '" + verb + "'");
        }
        std::string extra;
        if (ls >> extra)
            bad("trailing garbage '" + extra + "'");
    }

    std::stable_sort(sched.events_.begin(), sched.events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
    return sched;
}

} // namespace crnet
