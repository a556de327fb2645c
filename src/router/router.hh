/**
 * @file
 * Wormhole router model.
 *
 * Microarchitecture (one clock = one tick):
 *  - Input-buffered: every input port has `numVcs` virtual channels,
 *    each a FlitBuffer of `bufferDepth` flits.
 *  - Credit-based flow control per VC; one flit per physical channel
 *    per cycle; channel latency (1 cycle) is modeled by the Network.
 *  - Atomic VC allocation: a header may claim a downstream VC only if
 *    it is unallocated and its buffer is empty (all credits present).
 *  - Switch: one flit per input port and one flit per output port per
 *    cycle; round-robin arbitration on both sides. Each input port
 *    nominates one VC; each output grants the requesting input
 *    nearest at or after its round-robin pointer, found with a
 *    64-bit request mask (hence at most kMaxRouterPorts ports a side).
 *
 * Port layout: input ports [0, 2n) are network links, [2n, 2n+I) are
 * injection channels from the local NIC. Output ports [0, 2n) are
 * network links, [2n, 2n+E) are ejection channels to the local NIC.
 *
 * Storage layout: all mutable per-VC state (flit slots, input/output
 * VC state machines, round-robin pointers) lives in a
 * `Router::StatePool` — per-field arrays spanning every router of one
 * network, indexed by node id. Each Router instance holds raw base
 * pointers into its pool slice, so a shard worker ticking a
 * contiguous node range walks cache-dense memory. Input-VC state is
 * split hot/cold: what the tick reads every cycle fits one cache line
 * per VC, the kill token and forensics sit in a parallel array
 * (docs/PERFORMANCE.md, "Router hot path"). A Router constructed
 * without an external pool owns a private single-node pool, keeping
 * standalone use (unit tests) source-compatible.
 *
 * Live-VC masks: each router keeps six 64-bit masks over its input
 * VCs (bit `port * numVcs + vc`, hence at most 64 input VCs, which
 * SimConfig::validate enforces). Routing and Active mirror the VC
 * state, written with it by setState(). Kill pending and moved this
 * cycle are the only copy of those two flags; the snapshot lists each
 * bit as a bool among its VC's fields. Buffered (the buffer
 * holds a flit) and credit-ready (Active, and its output VC has a
 * credit) let switch allocation nominate without loading a blocked
 * VC's line. afterRestore() rebuilds the four derived masks from the
 * VC records. The tick's stages visit only set bits, in ascending
 * (port, VC) order, and a router whose masks are empty and that has
 * no backward kill queued stops after clearing its outbox; idle() is
 * a mask test (docs/PERFORMANCE.md, "Live-VC masks" and §10).
 *
 * Outbox: a tick emits into a RouterOutbox. A network binds every
 * router of a shard to the shard's outbox and drains it right after
 * each tick; a standalone router owns a private one.
 *
 * Kill machinery (the CR-specific part):
 *  - A forward Kill token arriving at an input VC purges the worm's
 *    buffered flits. If the worm had an output allocated, the token is
 *    re-sent on that output next cycle with priority over data and
 *    without consuming credits (in hardware it rides the control
 *    wires); the output VC is deallocated and its credit count reset
 *    to "empty downstream" because the purged flits never return
 *    credits. If the worm's header was still waiting here, the token
 *    annihilates with it.
 *  - A backward kill walks the worm's switch allocations upstream,
 *    purging as it goes, until it reaches the injector (which aborts
 *    and schedules a retransmission). Used by the receiver-independent
 *    path-wide timeout scheme the paper evaluates against.
 */

#ifndef CRNET_ROUTER_ROUTER_HH
#define CRNET_ROUTER_ROUTER_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/core/annotations.hh"
#include "src/router/buffer.hh"
#include "src/router/flit.hh"
#include "src/routing/routing.hh"
#include "src/sim/config.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace crnet {

class Auditor;
class Tracer;

/** Counters shared by all routers of one network. */
struct RouterStats
{
    Counter flitsForwarded;     //!< Data flits moved through switches.
    Counter headersRouted;      //!< Successful VC allocations.
    Counter escapeAllocations;  //!< Duato escape-channel entries (PDS).
    Counter misrouteHops;       //!< Non-minimal hops taken.
    Counter killsForwarded;     //!< Forward-kill hop traversals.
    Counter killsAnnihilated;   //!< Kills that met their header.
    Counter pathWideKills;      //!< Router-initiated kills (path-wide).
    Counter bkillHops;          //!< Backward-kill hop traversals.
    Counter flitsPurged;        //!< Data flits dropped by kill purges.
    Counter stragglersDropped;  //!< Late data flits of killed worms.
    Counter staleKills;         //!< Kill/bkill tokens that found their
                                //!< worm already gone.
    Counter lateCreditsDropped; //!< Credits arriving after kill reset.
    Counter linkDeathTeardowns; //!< Worm segments reclaimed because a
                                //!< link died under them.
};

/** A flit leaving the router this cycle. */
struct SentFlit
{
    WireFlit flit;
    PortId outPort = kInvalidPort;
    VcId vc = kInvalidVc;
    /** A head's index into Router::sentHeaders, else kNoHeader. */
    std::uint32_t header = kNoHeader;
};

/** A credit owed to whoever feeds `inPort`. */
struct SentCredit
{
    PortId inPort = kInvalidPort;
    VcId vc = kInvalidVc;
};

/** A backward kill owed to whoever feeds `inPort`. */
struct SentBkill
{
    PortId inPort = kInvalidPort;
    VcId vc = kInvalidVc;
};

/** An abort notification to the local injector. */
struct SentAbort
{
    std::uint32_t injChannel = 0;
    VcId vc = kInvalidVc;
    MsgId msg = kInvalidMsg;
};

/**
 * What one router tick emits, plus route computation's candidate
 * scratch. Cleared at tick entry; valid until the next tick of any
 * router bound to it.
 */
struct RouterOutbox
{
    std::vector<SentFlit> flits;
    /** The headers of the heads in `flits`, in order. */
    std::vector<WormHeader> headers;
    std::vector<SentCredit> credits;
    std::vector<SentBkill> bkills;
    std::vector<SentAbort> aborts;
    std::vector<Candidate> candidates;

    RouterOutbox() = default;
    /** Reserve the most one tick can emit under `cfg`'s geometry. */
    explicit RouterOutbox(const SimConfig& cfg);

    void clear();
};

/** One wormhole router. */
class Router
{
  private:
    /** Private outbox of a standalone router (else null). */
    std::unique_ptr<RouterOutbox> selfOutbox_;
    /** Where tick() emits: selfOutbox_ or the shard's outbox. */
    RouterOutbox& out_;

    /**
     * Hot per-input-VC state: exactly the fields Router::tick reads
     * every cycle, packed into one cache line. What only kills and
     * forensics touch lives in the parallel InputVcCold record.
     */
    struct InputVc
    {
        enum class State : std::uint8_t { Idle, Routing, Active };

        FlitBuffer buf;                 //!< Ring over pool flit slots.
        MsgId msg = kInvalidMsg;
        Cycle stallCycles = 0;          //!< For the path-wide scheme.
        std::uint16_t attempt = 0;      //!< Attempt of current worm.
        PortId outPort = kInvalidPort;  //!< Allocation when Active.
        VcId outVc = kInvalidVc;
        State state = State::Idle;
        bool blockTraced = false;       //!< Block event emitted for
                                        //!< the current stall episode.
    };
    static_assert(sizeof(InputVc) <= 64,
                  "Router::InputVc must stay within one cache line");

    /**
     * Cold per-input-VC state: the buffered head's worm header, the
     * kill token and forensics.
     */
    struct InputVcCold
    {
        /** Header of the head in the buffer; leaves with the head. */
        WormHeader header;
        WireFlit killFlit;              //!< The stored token.
        PortId killOutPort = kInvalidPort;
        VcId killOutVc = kInvalidVc;
        MsgId purgeMsg = kInvalidMsg;   //!< Drop stragglers of this.
        Cycle headArrivedAt = 0;        //!< Head delivery (forensics).
    };

    /** Per-output-VC bookkeeping. */
    struct OutputVc
    {
        bool allocated = false;
        PortId holderPort = kInvalidPort;
        VcId holderVc = kInvalidVc;
        std::uint32_t credits = 0;
        bool ejection = false;  //!< Finite receiver-buffer credits.
        /**
         * Not allocatable before this cycle: after a kill resets the
         * credit count, one in-flight credit may still arrive a cycle
         * later; quarantining the VC keeps the ledger exact.
         */
        Cycle quarantineUntil = 0;
    };

  public:
    /**
     * Structure-of-arrays backing store for every router of one
     * network: flit slots, hot and cold input-VC state, output-VC
     * state and round-robin pointers live in contiguous per-field
     * arrays indexed by node id. A shard worker ticking a contiguous
     * node range therefore walks adjacent cache lines instead of
     * pointer-chasing per-router heaps.
     */
    class StatePool
    {
      public:
        /** Size arrays for `nodes` routers under `cfg` geometry. */
        StatePool(const SimConfig& cfg, std::uint64_t nodes);

        StatePool(const StatePool&) = delete;
        StatePool& operator=(const StatePool&) = delete;

        std::uint64_t nodes() const { return nodes_; }

        /** Bytes held by the pool arrays (capacity accounting). */
        std::size_t bytes() const;

      private:
        friend class Router;

        std::uint64_t nodes_;
        PortId inPorts_;
        PortId outPorts_;
        std::uint32_t vcs_;
        std::size_t depth_;

        std::vector<WireFlit> flitSlots_; //!< [node][inPort][vc][depth].
        std::vector<InputVc> inputs_;   //!< [node][inPort][vc].
        std::vector<InputVcCold> cold_; //!< [node][inPort][vc].
        std::vector<OutputVc> outputs_; //!< [node][outPort][vc].
        std::vector<VcId> rrInVc_;      //!< [node][inPort].
        std::vector<PortId> rrOutIn_;   //!< [node][outPort].
    };

    /**
     * Standalone router owning a private single-node StatePool.
     *
     * @param id     Node this router serves.
     * @param cfg    Simulation configuration.
     * @param algo   Routing relation (shared across routers).
     * @param stats  Shared counter block (never null).
     * @param rng    Private stream for arbitration tie-breaks.
     */
    Router(NodeId id, const SimConfig& cfg,
           const RoutingAlgorithm& algo, RouterStats* stats, Rng rng);

    /**
     * Pool-backed router: mutable VC state lives in `pool` at slice
     * `poolIndex`, and tick() emits into `outbox`. Both must outlive
     * the router; the pool's arrays never reallocate (they are sized
     * once at construction).
     */
    Router(NodeId id, const SimConfig& cfg,
           const RoutingAlgorithm& algo, RouterStats* stats, Rng rng,
           StatePool& pool, std::uint64_t poolIndex,
           RouterOutbox& outbox);

    NodeId id() const { return id_; }
    PortId numInPorts() const { return numInPorts_; }
    PortId numOutPorts() const { return numOutPorts_; }
    PortId networkPorts() const { return networkPorts_; }
    /** First injection input port. */
    PortId injBase() const { return networkPorts_; }
    /** First ejection output port. */
    PortId ejBase() const { return networkPorts_; }

    // --- Delivery phase (Network calls these before tick) ----------

    /**
     * A flit arrives on an input VC (from a channel register) at cycle
     * `at`, which a head records for forensics. `hdr` is the worm
     * header when the flit is a head, else null; the VC keeps it until
     * the head leaves.
     */
    void acceptFlit(PortId in_port, VcId vc, const WireFlit& flit,
                    const WormHeader* hdr, Cycle at);

    /**
     * The same for a whole Flit: its header rides along if a head. A
     * caller without a network clock (unit tests, microbenchmarks)
     * delivers at the router's last tick.
     */
    void acceptFlit(PortId in_port, VcId vc, const Flit& flit)
    {
        acceptFlit(in_port, vc, flit, flit.header(), now_);
    }

    /** A credit returns for an output VC. */
    void acceptCredit(PortId out_port, VcId vc);

    /** A backward kill arrives, addressed to an output VC. */
    CRNET_ALLOW("alloc",
                "amortized growth only: the pending list is cleared "
                "every tick and keeps its capacity, and a cycle "
                "delivers at most one backward kill per output VC")
    void acceptBkill(PortId out_port, VcId vc);

    // --- Compute phase ----------------------------------------------

    /**
     * Advance one cycle: process backward kills, forward pending kill
     * tokens, route waiting headers, allocate the switch and emit
     * flits/credits into the outboxes.
     */
    CRNET_HOT_PATH
    void tick(Cycle now);

    // --- Dynamic faults (Network calls these when a link dies) -------

    /**
     * The directed link leaving `out_port` just died. Worms holding
     * one of its output VCs are torn down toward their source via the
     * backward-kill path (processed first thing this tick); orphaned
     * credit ledgers reset to "downstream empty" — purged flits never
     * return credits over a dead wire.
     */
    CRNET_ALLOW("alloc",
                "runs only when a link dies, a fault event: queues at "
                "most one backward kill per output VC")
    void onOutputLinkDead(PortId out_port, Cycle now);

    /**
     * The directed link feeding `in_port` just died. Stranded worm
     * state is purged; an Active worm's downstream fragment is chased
     * with a kill token issued at the break point (the source's own
     * kill can no longer cross the dead wire), while a still-waiting
     * header simply dies with the wire.
     */
    void onInputLinkDead(PortId in_port, Cycle now);

    /**
     * The directed link leaving `out_port` was repaired: re-arm its
     * credit ledgers. The death-time teardown guarantees the far side
     * is empty, so every ledger restarts at "downstream empty".
     */
    void onOutputLinkRepaired(PortId out_port, Cycle now);

    // --- The bound outbox's lists (valid after tick) -----------------
    std::vector<SentFlit>& sentFlits;
    /** The headers of the heads in sentFlits, in order. */
    std::vector<WormHeader>& sentHeaders;
    std::vector<SentCredit>& sentCredits;
    std::vector<SentBkill>& sentBkills;
    std::vector<SentAbort>& sentAborts;

    // --- Introspection (tests, watchdog) ------------------------------

    /** True when no input VC holds any flit or allocation. */
    bool idle() const;

    /** Flits currently buffered across all input VCs. */
    std::uint64_t bufferedFlits() const;

    /** State of one input VC (test hook). */
    bool vcIdle(PortId in_port, VcId vc) const;

    /** Input-VC state machine phases (forensics/probe mirror). */
    enum class VcState : std::uint8_t { Idle, Routing, Active };

    /** Forensic snapshot of one input VC (watchdog dump). */
    struct InputProbe
    {
        VcState state = VcState::Idle;
        MsgId msg = kInvalidMsg;
        std::uint16_t attempt = 0;
        std::uint32_t buffered = 0;
        Cycle stallCycles = 0;
        bool killPending = false;
        PortId outPort = kInvalidPort;
        VcId outVc = kInvalidVc;
        Cycle headArrivedAt = 0;  //!< Cycle the head was delivered.
    };
    InputProbe inputProbe(PortId in_port, VcId vc) const;

    // --- Audit probes (see src/sim/audit.hh) --------------------------

    /** Attach the invariant auditor (null to detach). */
    void setAuditor(Auditor* audit) { audit_ = audit; }

    /** Attach the event tracer (null to detach; the default). */
    void setTracer(Tracer* trace) { trace_ = trace; }

    // --- Heat counters (see src/core/timeseries.hh) --------------------

    /** Enable per-port heat accumulation (allocates the counters). */
    void setHeatTracking(bool on);

    /** Data flits forwarded out of `out_port` (0 when not tracking). */
    std::uint64_t heatForwarded(PortId out_port) const;

    /** Cycles `in_port` held at least one blocked worm. */
    std::uint64_t heatBlocked(PortId in_port) const;

    /** Sum over cycles of flits buffered in this router. */
    std::uint64_t heatOccupancyIntegral() const
    {
        return heatOccupancy_;
    }

    /** Flits buffered in one input VC. */
    std::uint32_t inputOccupancy(PortId in_port, VcId vc) const;

    /** True while a forward kill waits on this input VC. */
    bool inputKillPending(PortId in_port, VcId vc) const;

    /** The switch-readiness mask bits of one input VC (test hook). */
    struct ReadyBits
    {
        bool buffered = false;     //!< The buffer holds a flit.
        bool creditReady = false;  //!< Active, output VC has a credit.
    };
    ReadyBits readyBits(PortId in_port, VcId vc) const;

    /** Credit-ledger view of one output VC. */
    struct OutputProbe
    {
        bool allocated = false;
        std::uint32_t credits = 0;
        Cycle quarantineUntil = 0;
    };
    OutputProbe outputProbe(PortId out_port, VcId vc) const;

    // --- Checkpoint support (snapshot.hh) ------------------------------

    /**
     * Snapshot field list: every field that survives across ticks —
     * input/output VC state machines, pending backward kills,
     * round-robin pointers, heat counters and the RNG stream. The
     * outboxes are cleared at tick entry and need not round-trip.
     * The byte stream is identical whether the router is standalone
     * or pool-backed (state is walked per-router in node order either
     * way).
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

    /** Restore's last step: empty the outbox, rebuild the masks. */
    void afterRestore();

  private:
    /** The common part: a null `outbox` makes a private one. */
    Router(NodeId id, const SimConfig& cfg, const RoutingAlgorithm& algo,
           RouterStats* stats, Rng rng, RouterOutbox* outbox);

    /** Bind the pool slice at `index` and initialize its fields. */
    void attach(StatePool& pool, std::uint64_t index);

    static void setBit(std::uint64_t& mask, std::size_t i, bool on)
    {
        const std::uint64_t bit = std::uint64_t{1} << i;
        mask = on ? mask | bit : mask & ~bit;
    }

    /** Snapshot mask bit `i` as one bool field. */
    template <typename Io, typename Mask>
    static void serializeBit(Io& io, Mask& mask, std::size_t i);

    InputVc& ivc(PortId p, VcId v);
    const InputVc& ivc(PortId p, VcId v) const;
    InputVcCold& icold(PortId p, VcId v);
    OutputVc& ovc(PortId p, VcId v);
    const OutputVc& ovc(PortId p, VcId v) const;

    std::size_t numInVcs() const
    {
        return static_cast<std::size_t>(numInPorts_) * numVcs_;
    }
    std::size_t numOutVcs() const
    {
        return static_cast<std::size_t>(numOutPorts_) * numVcs_;
    }

    /** Index of input VC (p, v) in the VC arrays and the masks. */
    std::size_t vcIndex(PortId p, VcId v) const
    {
        return static_cast<std::size_t>(p) * numVcs_ + v;
    }

    /**
     * Call `f(p, v)` for every set bit of `mask`, in ascending (port,
     * VC) order. Walks one port's lane of bits at a time, so it needs
     * no division and stops after the highest live port.
     */
    template <typename F>
    void forEachVc(std::uint64_t mask, F&& f) const
    {
        const std::uint64_t lane = (std::uint64_t{1} << numVcs_) - 1;
        for (PortId p = 0; mask != 0; ++p, mask >>= numVcs_) {
            for (std::uint64_t m = mask & lane; m != 0; m &= m - 1)
                f(p, static_cast<VcId>(std::countr_zero(m)));
        }
    }

    /**
     * Write (p, v)'s state and its Routing, Active and credit-ready
     * bits; entering Active reads the credits of the output VC the
     * caller already stored in the record. No other code writes state.
     */
    void setState(PortId p, VcId v, InputVc::State s);
    void setKillPending(PortId p, VcId v, bool on);
    void markMoved(PortId p, VcId v);
    /** Empty (p, v)'s buffer; returns the flits dropped. */
    std::size_t purge(PortId p, VcId v);

    void processBkills();
    /** Send pending kill tokens; returns the output ports they took. */
    std::uint64_t forwardKills();
    void routeHeaders(Cycle now);
    /** Route the waiting header on (p, v), if an output VC is free. */
    CRNET_ALLOW("alloc",
                "the routing function appends to out_.candidates, "
                "cleared per header and reserved at construction to "
                "every VC of every output port, the most any routing "
                "function offers (RouterOutbox)")
    void routeHeader(PortId p, VcId v, Cycle now);
    /** Switch allocation over the outputs not in `busy_outputs`. */
    CRNET_ALLOW("alloc",
                "granted flits, their heads' headers and the freed "
                "credits land in out_, reserved at construction to one "
                "flit per output port and one credit per input port "
                "(RouterOutbox)")
    void allocateSwitch(std::uint64_t busy_outputs);
    void checkRouterTimeouts();
    void killWormAt(PortId p, VcId v);
    /** Store a forward kill token to chase the worm on (p, v). */
    void armKill(PortId p, VcId v, const WireFlit& token);
    /** Return (p, v) to Idle; later flits of `purged` are dropped. */
    void retire(PortId p, VcId v, MsgId purged);
    void propagateUpstream(PortId in_port, VcId vc, MsgId msg);
    void accumulateHeat();

    NodeId id_;
    const SimConfig& cfg_;
    const RoutingAlgorithm& algo_;
    RouterStats* stats_;
    Auditor* audit_ = nullptr;
    Tracer* trace_ = nullptr;
    Rng rng_;

    PortId networkPorts_;
    PortId numInPorts_;
    PortId numOutPorts_;
    std::uint32_t numVcs_;

    /** Private pool for the standalone constructor (else null). */
    std::unique_ptr<StatePool> selfPool_;

    // Base pointers into this router's StatePool slice. [port][vc]
    // flattened, exactly like the historical per-router vectors.
    InputVc* inputs_ = nullptr;
    InputVcCold* cold_ = nullptr;
    OutputVc* outputs_ = nullptr;
    VcId* rrInVc_ = nullptr;     //!< Round-robin, per input port.
    PortId* rrOutIn_ = nullptr;  //!< Round-robin, per output port.

    // Input-VC masks (bit vcIndex(p, v)). The kill and moved masks are
    // the flags themselves and serialized; the rest are derived,
    // rebuilt on restore and never serialized.
    std::uint64_t routingMask_ = 0;   //!< State Routing.
    std::uint64_t activeMask_ = 0;    //!< State Active.
    std::uint64_t killMask_ = 0;      //!< A kill token waits to leave.
    std::uint64_t movedMask_ = 0;     //!< Moved this cycle (stalls).
    std::uint64_t bufferedMask_ = 0;  //!< The buffer holds a flit.
    std::uint64_t creditMask_ = 0;    //!< Active, output has a credit.

    /** Backward kills accepted last delivery, processed this tick. */
    std::vector<SentBkill> pendingBkillsAsOut_;

    /** Heat counters (empty unless setHeatTracking(true)). */
    bool heatTracking_ = false;
    std::vector<std::uint64_t> heatForwarded_;  //!< Per output port.
    std::vector<std::uint64_t> heatBlocked_;    //!< Per input port.
    std::uint64_t heatOccupancy_ = 0;

    /** Current cycle (set at tick entry; used by helpers). */
    Cycle now_ = 0;
};

template <typename Io, typename Mask>
void
Router::serializeBit(Io& io, Mask& mask, std::size_t i)
{
    bool on = ((mask >> i) & 1) != 0;
    io.b(on);
    if constexpr (!std::is_const_v<Mask>)
        setBit(mask, i, on);
}

template <typename Self, typename Io>
void
Router::serialize(Self& self, Io& io)
{
    for (std::size_t i = 0; i < self.numInVcs(); ++i) {
        auto& in = self.inputs_[i];
        auto& c = self.cold_[i];
        io.seq(in.buf, [&](auto& f) { WireFlit::serialize(f, io); });
        // The header is live only while its head is buffered.
        if (!in.buf.empty() && in.buf.front().isHead())
            WormHeader::serialize(c.header, io);
        io.u8(in.state);
        io.u64(in.msg);
        io.u16(in.attempt);
        io.u16(in.outPort);
        io.u16(in.outVc);
        io.u64(in.stallCycles);
        io.u64(c.headArrivedAt);
        serializeBit(io, self.movedMask_, i);
        io.b(in.blockTraced);
        serializeBit(io, self.killMask_, i);
        WireFlit::serialize(c.killFlit, io);
        io.u16(c.killOutPort);
        io.u16(c.killOutVc);
        io.u64(c.purgeMsg);
    }
    for (std::size_t i = 0; i < self.numOutVcs(); ++i) {
        auto& out = self.outputs_[i];
        io.b(out.allocated);
        io.u16(out.holderPort);
        io.u16(out.holderVc);
        io.u32(out.credits);
        io.b(out.ejection);
        io.u64(out.quarantineUntil);
    }
    io.seq(self.pendingBkillsAsOut_, [&](auto& bk) {
        io.u16(bk.inPort);
        io.u16(bk.vc);
    });
    for (PortId p = 0; p < self.numInPorts_; ++p)
        io.u16(self.rrInVc_[p]);
    for (PortId p = 0; p < self.numOutPorts_; ++p)
        io.u16(self.rrOutIn_[p]);
    io.same(
        [&](bool saved) {
            panic("heat-tracking mismatch on restore (saved ", saved,
                  ", have ", self.heatTracking_, ")");
        },
        self.heatTracking_);
    if (self.heatTracking_) {
        for (auto& v : self.heatForwarded_)
            io.u64(v);
        for (auto& v : self.heatBlocked_)
            io.u64(v);
        io.u64(self.heatOccupancy_);
    }
    io.rng(self.rng_);
    io.u64(self.now_);
}

} // namespace crnet

#endif // CRNET_ROUTER_ROUTER_HH
