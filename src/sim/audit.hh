/**
 * @file
 * Invariant-audit engine: runtime verification of the CR/FCR protocol.
 *
 * The simulator's correctness argument rests on a handful of delicate
 * invariants (padding >= network depth, kills that tear down the whole
 * reserved path, exact credit ledgers). The Auditor checks them while
 * the simulation runs, so a protocol bug dies loudly — via panic() —
 * at the cycle it occurs instead of surfacing cycles later as a wedged
 * network or a silently wrong table.
 *
 * Checked invariants (see docs/CORRECTNESS.md for the paper mapping):
 *
 *  1. Worm framing per channel: Head(seq 0) -> Body* -> Pad* -> Tail,
 *     contiguous sequence numbers, one worm at a time, no flit after
 *     the tail, kill tokens only for the worm (or purged worm) that
 *     actually used the channel.
 *  2. Flit conservation: every data flit injected is, at all times,
 *     buffered somewhere, in flight on a channel register, consumed by
 *     a receiver, or purged by the kill machinery. Nothing leaks,
 *     nothing is double-counted.
 *  3. Credit-ledger exactness: for every (channel, VC) edge,
 *     upstream credits + downstream occupancy + in-flight flits +
 *     in-flight credits == bufferDepth, outside explicit kill
 *     quarantine windows.
 *  4. CR/FCR padding: a worm's wire length covers the flit capacity of
 *     its path (CR) or payload + round trip (FCR) — the precondition
 *     of the paper's no-acknowledgement commit rule.
 *  5. Timestamp sanity: createdAt <= headInjectedAt <= current cycle
 *     on every data flit.
 *
 * Cost model: the per-flit hooks are guarded by the CRNET_AUDIT_HOOK
 * macro, which compiles to nothing when the CRNET_AUDIT CMake option
 * is OFF — release builds pay zero cycles and zero branches. When ON,
 * framing/timestamp checks run per flit event and the global sweep
 * (conservation + ledgers) runs every SimConfig::auditInterval cycles.
 */

#ifndef CRNET_SIM_AUDIT_HH
#define CRNET_SIM_AUDIT_HH

#include <cstdint>
#include <set>
#include <vector>

#include "src/core/annotations.hh"
#include "src/router/flit.hh"
#include "src/sim/config.hh"
#include "src/sim/log.hh"
#include "src/sim/types.hh"

#ifndef CRNET_AUDIT_ENABLED
#define CRNET_AUDIT_ENABLED 0
#endif

/**
 * Invoke an Auditor hook through a possibly-null pointer. Expands to
 * nothing when auditing is compiled out, so hook sites in the hot path
 * cost nothing in production builds.
 */
#if CRNET_AUDIT_ENABLED
#define CRNET_AUDIT_HOOK(auditor, call)                                \
    do {                                                               \
        if ((auditor) != nullptr)                                      \
            (auditor)->call;                                           \
    } while (false)
#else
#define CRNET_AUDIT_HOOK(auditor, call)                                \
    do {                                                               \
    } while (false)
#endif

namespace crnet {

class Topology;

/** What kind of channel an AuditEdge describes. */
enum class AuditEdgeKind : std::uint8_t {
    Network,   //!< Router-to-router link (downstream side named).
    Injection, //!< Injector -> local router channel.
    Ejection   //!< Router -> local receiver channel.
};

/** Credit-ledger snapshot of one (channel, VC) edge. */
struct AuditEdge
{
    AuditEdgeKind kind = AuditEdgeKind::Network;
    NodeId node = kInvalidNode;  //!< Downstream node (network) or NIC node.
    std::uint32_t port = 0;      //!< Downstream input port / channel index.
    VcId vc = 0;
    std::uint32_t credits = 0;         //!< Upstream credit counter.
    std::uint32_t occupancy = 0;       //!< Downstream buffer occupancy.
    std::uint32_t inFlightFlits = 0;   //!< Data flits on the wire.
    std::uint32_t inFlightCredits = 0; //!< Credits on the wire.
    /**
     * Ledger legitimately in flux: kill quarantine, injector cooldown,
     * or a kill/bkill/abort still in flight on this edge. Skipped.
     */
    bool skip = false;
};

/** Whole-network state summary consumed by Auditor::sweep(). */
struct AuditSnapshot
{
    Cycle now = 0;
    std::uint64_t bufferedFlits = 0; //!< Router + receiver buffers.
    std::uint64_t inFlightFlits = 0; //!< Data flits in channel registers.
    std::vector<AuditEdge> edges;
};

/**
 * The audit engine. One instance per Network; components report
 * events through the hooks and the Network feeds periodic snapshots
 * to sweep(). Any violated invariant panics with full context.
 */
class Auditor
{
  public:
    Auditor(const SimConfig& cfg, const Topology& topo);

    /** Called by the Network at the top of every tick. */
    void beginCycle(Cycle now) { now_ = now; }

    // --- Sharded-tick staging -----------------------------------------

    /**
     * Per-thread staging area for the sharded cycle: hooks fired from
     * a shard worker (owner delivery or a component tick) accumulate
     * their conservation deltas, flit-check counts and issued kills
     * here instead of the shared members, and the Network folds every
     * stage serially after the crew joins. The per-flit validity
     * checks still run inline on the worker (they read only the flit,
     * node-owned channel mirrors and the kill registry, which nothing
     * writes during the parallel section), so a violation dies at the
     * cycle it occurs exactly as in an unsharded run.
     */
    struct ShardStage
    {
        std::uint64_t injected = 0;
        std::uint64_t consumed = 0;
        std::uint64_t purged = 0;
        std::uint64_t flitChecks = 0;
        std::vector<std::uint64_t> kills;  //!< killKey(msg, attempt).
    };

    /** Install (or clear, with null) this thread's staging area. */
    static void setThreadStage(ShardStage* stage);

    /** Fold one stage into the shared ledgers and reset it. */
    CRNET_ALLOW("alloc",
                "audit-mode kill-token registry: one node per issued "
                "kill; compiled out of release builds (CRNET_AUDIT)")
    void foldStage(ShardStage& stage);

    // --- Worm lifecycle hooks ----------------------------------------

    /** A worm is about to transmit: validate its padding. */
    void onWormStart(NodeId src, NodeId dst, std::uint32_t wire_len,
                     std::uint32_t payload_len);

    // The flit hooks take a head's WormHeader as `hdr` (null for
    // every other flit) and check header fields there, once per worm.

    /** A data flit entered an injection channel (conservation). */
    void onFlitInjected(NodeId node, const WireFlit& flit,
                        const WormHeader* hdr);

    /** A flit (data or kill) arrived at a router input VC. */
    void onChannelFlit(NodeId node, PortId in_port, VcId vc,
                       const WireFlit& flit, const WormHeader* hdr);

    /** A flit (data or kill) arrived at a receiver ejection VC. */
    void onEjectionFlit(NodeId node, std::uint32_t ej_channel, VcId vc,
                        const WireFlit& flit, const WormHeader* hdr);

    /** A router input VC was purged without a token (bkill/timeout). */
    void onChannelReset(NodeId node, PortId in_port, VcId vc,
                        MsgId msg);

    /**
     * A kill token for (msg, attempt) was legitimately created — by
     * the source timeout machinery or a router-side timeout scheme.
     * A kill can overrun its worm by one hop (the header it chases
     * was purged before traversing), so kills on idle channels are
     * legal only when their token is registered here.
     */
    void onKillIssued(MsgId msg, std::uint16_t attempt)
    {
        registerKill(killKey(msg, attempt));
    }

    /** `n` buffered data flits were dropped by the kill machinery. */
    void onFlitsPurged(std::uint64_t n)
    {
        if (tlsStage_ != nullptr) {
            tlsStage_->purged += n;
            return;
        }
        purged_ += n;
    }

    /** A receiver consumed one flit (conservation). */
    void onFlitConsumed(NodeId node, const WireFlit& flit,
                        const WormHeader* hdr);

    // --- Periodic sweep -----------------------------------------------

    /** Check conservation and every credit ledger against `snap`. */
    void sweep(const AuditSnapshot& snap);

    // --- Introspection (tests) ----------------------------------------

    std::uint64_t injected() const { return injected_; }
    std::uint64_t consumed() const { return consumed_; }
    std::uint64_t purged() const { return purged_; }
    std::uint64_t sweepsRun() const { return sweeps_; }
    std::uint64_t flitChecks() const { return flitChecks_; }

    // --- Checkpoint support (snapshot.hh) -----------------------------

    /**
     * Snapshot field list. Channel mirrors, kill registry and
     * conservation counters must
     * survive a restore or the first post-resume sweep would panic on
     * a phantom conservation violation.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    /** Mirror of one channel's worm state machine. */
    struct ChannelState
    {
        MsgId msg = kInvalidMsg;        //!< Worm currently on the channel.
        std::uint16_t attempt = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t payloadLen = 0;
        MsgId purgedMsg = kInvalidMsg;  //!< Stragglers of this are legal.
    };

    void checkFlit(ChannelState& ch, const WireFlit& flit,
                   const WormHeader* hdr, const char* where, NodeId node,
                   std::uint32_t port, VcId vc);
    /** A header rides with its head and with nothing else. */
    static void checkHeaderCarrier(const WireFlit& flit,
                                   const WormHeader* hdr,
                                   const char* where, NodeId node);
    ChannelState& routerChannel(NodeId node, PortId port, VcId vc);
    ChannelState& ejectionChannel(NodeId node, std::uint32_t ch,
                                  VcId vc);

    static std::uint64_t killKey(MsgId msg, std::uint16_t attempt)
    {
        return (static_cast<std::uint64_t>(msg) << 16) | attempt;
    }

    /** Add a kill token to the registry, through the stage if set. */
    CRNET_ALLOW("alloc",
                "audit-mode kill-token registry: one node per issued "
                "kill; compiled out of release builds (CRNET_AUDIT)")
    void registerKill(std::uint64_t key)
    {
        if (tlsStage_ != nullptr) {
            tlsStage_->kills.push_back(key);
            return;
        }
        issuedKills_.insert(key);
    }

    const SimConfig& cfg_;
    const Topology& topo_;
    Cycle now_ = 0;

    std::uint32_t portsPerRouter_;  //!< Network + injection inputs.
    std::vector<ChannelState> routerChannels_;
    std::vector<ChannelState> ejectionChannels_;

    /** Every (msg, attempt) a kill token was legitimately issued for. */
    std::set<std::uint64_t> issuedKills_;

    // Conservation ledger, independent of NetworkStats counters.
    std::uint64_t injected_ = 0;
    std::uint64_t consumed_ = 0;
    std::uint64_t purged_ = 0;

    std::uint64_t sweeps_ = 0;
    std::uint64_t flitChecks_ = 0;

    /** Per-thread staging area (null = update ledgers directly). */
    static thread_local ShardStage* tlsStage_;
};

template <typename Self, typename Io>
void
Auditor::serialize(Self& self, Io& io)
{
    for (auto* chans : {&self.routerChannels_, &self.ejectionChannels_}) {
        io.same(
            [&](std::uint64_t saved) {
                panic("audit channel-mirror count mismatch on restore: "
                      "saved ", saved, ", have ", chans->size());
            },
            std::uint64_t{chans->size()});
        for (auto& ch : *chans) {
            io.u64(ch.msg);
            io.u16(ch.attempt);
            io.u32(ch.nextSeq);
            io.u32(ch.payloadLen);
            io.u64(ch.purgedMsg);
        }
    }
    io.sorted(self.issuedKills_, [&](auto& key) { io.u64(key); });
    io.u64(self.injected_);
    io.u64(self.consumed_);
    io.u64(self.purged_);
    io.u64(self.sweeps_);
    io.u64(self.flitChecks_);
    io.u64(self.now_);
}

} // namespace crnet

#endif // CRNET_SIM_AUDIT_HH
