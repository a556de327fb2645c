/**
 * @file
 * Fault injection for CR/FCR evaluation.
 *
 * Fault classes, matching (and extending) the paper's Section 6.2
 * evaluation:
 *
 *  - Transient faults: each flit-hop traversal independently corrupts
 *    the flit with probability `transientFaultRate`. Corruption
 *    scrambles the payload (so the CRC fails) and sets the detection
 *    flag the receiver logic keys on. A burst window (FaultSchedule)
 *    can temporarily raise the effective rate.
 *  - Permanent faults: whole physical links (both directions) dead
 *    from cycle 0, placed by `injectPermanentFaults`.
 *  - Dynamic faults: links killed *while the simulation runs* via
 *    `killLink` / `killDirectedLink`, possibly under an active worm.
 *    The Network owns the recovery plumbing (teardown of stranded
 *    channel state, absorption of in-flight events on the dead wire);
 *    this class only tracks which directed channels are usable.
 *    Links can also be revived (repair events).
 *
 * `killLink` kills both directions of a physical link — the usual
 * "cable cut" model, and what `injectPermanentFaults` places.
 * `killDirectedLink` kills a single direction, which models a failed
 * driver/receiver pair on one side: traffic still flows the other
 * way. `deadLinks()` reports which kind each dead entry is.
 *
 * The permanent-fault chooser keeps every node at a minimum healthy
 * degree so the network stays usable (the paper likewise assumes the
 * fault pattern leaves the network connected).
 */

#ifndef CRNET_FAULT_FAULT_MODEL_HH
#define CRNET_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <vector>

#include "src/router/flit.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/topology/topology.hh"

namespace crnet {


/** How much of a physical link a dead entry covers. */
enum class DeadLinkKind : std::uint8_t {
    Directed,      //!< Only this direction is dead.
    Bidirectional  //!< The reverse direction is dead too.
};

/** One dead directed channel, as reported by deadLinks(). */
struct DeadLink
{
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    DeadLinkKind kind = DeadLinkKind::Directed;
};

/** Link-fault and flit-corruption model. */
class FaultModel
{
  public:
    /**
     * @param topo Topology (for link enumeration / endpoints).
     * @param transient_rate P(corruption) per flit-hop.
     * @param rng Dedicated random stream.
     */
    FaultModel(const Topology& topo, double transient_rate, Rng rng);

    /**
     * Kill `count` random physical links (both directions). Links are
     * rejected if killing them would leave an endpoint with fewer
     * than `min_degree` healthy network ports.
     *
     * When placement stalls (the degree floor leaves no killable
     * link), the default is fatal() — a directly configured fault
     * count that cannot be honored is a user error. Monte-Carlo
     * campaigns pass `allow_partial = true` to instead stop early and
     * learn the shortfall from the return value.
     *
     * @return The number of links actually killed.
     */
    std::uint32_t injectPermanentFaults(std::uint32_t count,
                                        std::uint32_t min_degree = 2,
                                        bool allow_partial = false);

    /**
     * Kill one specific directed channel (one direction only; the
     * reverse channel keeps working). Fatal on a nonexistent link.
     */
    void killDirectedLink(NodeId node, PortId port);

    /** Kill both directions of the physical link at (node, port). */
    void killLink(NodeId node, PortId port);

    /** Revive one directed channel (no-op when already alive). */
    void reviveDirectedLink(NodeId node, PortId port);

    /** Revive both directions of the physical link at (node, port). */
    void reviveLink(NodeId node, PortId port);

    /** Health of the directed channel leaving `node` through `port`. */
    bool linkOk(NodeId node, PortId port) const;

    /**
     * Possibly corrupt a flit traversing one hop. Returns true when a
     * fault was injected this call.
     */
    bool maybeCorrupt(WireFlit& flit);

    /**
     * Transient burst window: while set, the effective corruption
     * probability is max(base rate, burst rate).
     */
    void setBurstRate(double rate);
    void clearBurstRate() { burstRate_ = 0.0; }

    /** The corruption probability currently applied per flit-hop. */
    double effectiveTransientRate() const;

    std::uint64_t corruptionsInjected() const { return corruptions_; }
    std::uint32_t permanentFaultCount() const { return permanent_; }

    /** Dead directed channels currently in effect. */
    std::uint32_t deadDirectedCount() const;

    /**
     * All dead directed channels. An entry is Bidirectional when the
     * reverse channel is dead too (both directions are still listed,
     * each from its own endpoint's perspective).
     */
    std::vector<DeadLink> deadLinks() const;

    // --- Checkpoint support (snapshot.hh) ---------------------------

    /** Snapshot field list: burst rate, RNG stream, dead map, counters. */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    std::size_t index(NodeId node, PortId port) const;
    std::uint32_t healthyDegree(NodeId node) const;

    const Topology& topo_;
    double transientRate_;
    double burstRate_ = 0.0;
    Rng rng_;
    std::vector<bool> dead_;  //!< Indexed by node * numPorts + port.
    std::uint64_t corruptions_ = 0;
    std::uint32_t permanent_ = 0;
};

template <typename Self, typename Io>
void
FaultModel::serialize(Self& self, Io& io)
{
    io.f64(self.burstRate_);
    io.rng(self.rng_);
    io.same(
        [&](std::uint64_t saved) {
            panic("dead-link map size mismatch on restore: saved ",
                  saved, ", have ", self.dead_.size());
        },
        std::uint64_t{self.dead_.size()});
    for (std::size_t i = 0; i < self.dead_.size(); ++i)
        io.b(self.dead_[i]);
    io.u64(self.corruptions_);
    io.u32(self.permanent_);
}

} // namespace crnet

#endif // CRNET_FAULT_FAULT_MODEL_HH
