/**
 * @file
 * Timed fault events fired while the simulation runs.
 *
 * A FaultSchedule is a sorted list of events — link death (directed
 * or both directions), fail-stop routers (every incident link dies
 * atomically), link repair, and transient-corruption burst windows —
 * that the Network pops at the start of each cycle and applies to the
 * FaultModel plus the recovery plumbing (worm teardown, credit-ledger
 * normalization).
 *
 * Schedules come from two sources, which can be combined:
 *
 *  - Stochastic placement from SimConfig (`dyn_link_kills` etc.):
 *    random links/routers, respecting the same degree floor as
 *    permanent faults, at cycles drawn uniformly from the configured
 *    fault window. Each trial's Rng gives reproducible campaigns.
 *  - A scenario file (`fault_scenario=path`), one event per line:
 *
 *        # cycle  event         args
 *        500      kill_link     12 3
 *        800      kill_directed 7 1
 *        1000     kill_router   9
 *        1500     repair_link   12 3
 *        2000     burst         0.01 300
 *
 *    `burst RATE LEN` raises the transient-corruption rate to RATE
 *    for LEN cycles. Blank lines and `#` comments are ignored; any
 *    syntax or range error is fatal with the offending line number.
 */

#ifndef CRNET_FAULT_FAULT_SCHEDULE_HH
#define CRNET_FAULT_FAULT_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/annotations.hh"
#include "src/sim/config.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/topology/topology.hh"

namespace crnet {


/** What a scheduled fault event does when it fires. */
enum class FaultEventKind : std::uint8_t {
    LinkDeath,          //!< Both directions of (node, port) die.
    DirectedLinkDeath,  //!< Only the channel leaving (node, port).
    RouterFailStop,     //!< All links incident to `node` die.
    LinkRepair,         //!< Both directions of (node, port) revive.
    BurstStart,         //!< Transient rate becomes max(base, rate).
    BurstEnd            //!< Transient rate reverts to the base rate.
};

/** One timed fault event. */
struct FaultEvent
{
    Cycle at = 0;
    FaultEventKind kind = FaultEventKind::LinkDeath;
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    double rate = 0.0;  //!< BurstStart only.
};

/** A human-readable one-line description (forensics, logs). */
std::string toString(const FaultEvent& e);

/** Sorted, replayable list of fault events. */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /**
     * Build the stochastic part of a schedule from config keys
     * (dyn_link_kills, dyn_router_kills, burst_*, ...) and merge in
     * the scenario file when `fault_scenario` is set.
     */
    static FaultSchedule fromConfig(const SimConfig& cfg,
                                    const Topology& topo, Rng rng);

    /** Parse a scenario file (fatal on any error). */
    static FaultSchedule fromFile(const std::string& path,
                                  const Topology& topo);

    /** Parse scenario text (tests; `where` labels diagnostics). */
    static FaultSchedule fromString(const std::string& text,
                                    const Topology& topo,
                                    const std::string& where = "<str>");

    void add(const FaultEvent& e);
    void merge(const FaultSchedule& other);

    /**
     * Append every not-yet-fired event with at <= now to `out`. The
     * Network's scratch `out` holds the whole schedule from
     * construction on, so the appends never grow it.
     */
    CRNET_ALLOW("alloc",
                "appends to the caller's scratch, reserved at "
                "construction to every event of the schedule")
    void collectDue(Cycle now, std::vector<FaultEvent>& out);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    std::size_t firedCount() const { return cursor_; }

    /** All events, sorted by firing cycle. */
    const std::vector<FaultEvent>& events() const { return events_; }

    /** Cycle of the earliest event, or 0 for an empty schedule. */
    Cycle firstEventCycle() const;

    /**
     * Stochastic placements requested via config but not honored
     * because the degree floor ran out of killable links. Campaigns
     * record this instead of aborting.
     */
    std::uint32_t placementShortfall() const { return shortfall_; }

    /**
     * Snapshot field list (snapshot.hh). The full event list is
     * serialized — not just the cursor — because a schedule can be
     * grown at runtime (Network::injectFaultEvent), so the restored
     * side cannot rebuild it from config alone.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    std::vector<FaultEvent> events_;  //!< Sorted by `at`.
    std::size_t cursor_ = 0;          //!< First unfired event.
    std::uint32_t shortfall_ = 0;
};

template <typename Self, typename Io>
void
FaultSchedule::serialize(Self& self, Io& io)
{
    io.seq(self.events_, [&](auto& e) {
        io.u64(e.at);
        io.u8(e.kind);
        io.u32(e.node);
        io.u16(e.port);
        io.f64(e.rate);
    });
    io.u64(self.cursor_);
    if (self.cursor_ > self.events_.size())
        panic("fault-schedule cursor ", self.cursor_, " beyond ",
              self.events_.size(), " events on restore");
    io.u32(self.shortfall_);
}

} // namespace crnet

#endif // CRNET_FAULT_FAULT_SCHEDULE_HH
