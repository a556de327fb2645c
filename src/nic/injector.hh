/**
 * @file
 * Message injection interface — the paper's Fig. 7 hardware in
 * software.
 *
 * The injector implements the source half of the CR/FCR protocol:
 *
 *  - pads messages to the CR (path depth) or FCR (payload + round
 *    trip) wire length,
 *  - watches injection progress per worm (stall counter, or the
 *    paper's I_min lower bound),
 *  - kills worms whose progress signals a potential deadlock
 *    situation, and
 *  - retransmits killed messages, front-of-queue (order preserving),
 *    after a static or binary-exponential gap.
 *
 * One worm may be in flight per (injection channel, VC) pair; worms on
 * one channel share its single flit/cycle of bandwidth (which is why
 * the paper scales the timeout by the VC count). A message to
 * destination d never starts while an earlier message to d is still
 * unfinished, which preserves per-(src,dst) order even with several
 * worms in flight.
 *
 * The source queue is a RingDeque and the busy-destination set a
 * sorted table reserved to one entry per slot, so neither allocates
 * per worm (docs/PERFORMANCE.md §10). A tick emits into an
 * InjectorOutbox: a network binds each injector to its shard's, a
 * standalone injector owns a private one.
 */

#ifndef CRNET_NIC_INJECTOR_HH
#define CRNET_NIC_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/annotations.hh"
#include "src/core/metrics.hh"
#include "src/router/flit.hh"
#include "src/routing/routing.hh"
#include "src/sim/config.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/topology/topology.hh"
#include "src/traffic/message.hh"

namespace crnet {

class Auditor;
class Tracer;

/** A flit the injector puts on an injection channel this cycle. */
struct InjectedFlit
{
    WireFlit flit;
    std::uint32_t injChannel = 0;
    VcId vc = kInvalidVc;
    /** A head's index into Injector::sentHeaders, else kNoHeader. */
    std::uint32_t header = kNoHeader;
};

/** A message the source gave up on (maxRetries exhausted). */
struct FailedMessage
{
    PendingMessage msg;
    Cycle at = 0;
};

/** The accumulator samples of one measured commit. */
struct CommittedSample
{
    double attempts = 0.0;  //!< Attempts the commit took (>= 1).
    double padFrac = 0.0;   //!< Pad flits / wire length.
};

/**
 * What one injector tick puts on its channels. Cleared at tick entry;
 * valid until the next tick of any injector bound to it.
 */
struct InjectorOutbox
{
    std::vector<InjectedFlit> flits;
    /** The worm headers of the heads in `flits`, in order. */
    std::vector<WormHeader> headers;

    InjectorOutbox() = default;
    /** Reserve the most one tick can emit: one flit per channel. */
    explicit InjectorOutbox(const SimConfig& cfg);

    void clear();
};

/** Per-node source interface. */
class Injector
{
  private:
    /** Private outbox of a standalone injector (else null). */
    std::unique_ptr<InjectorOutbox> selfOutbox_;
    /** Where tick() emits: selfOutbox_ or the shard's outbox. */
    InjectorOutbox& out_;

  public:
    /**
     * tick() emits into `outbox`, which must outlive the injector; a
     * standalone injector (null) owns a private one.
     */
    Injector(NodeId node, const SimConfig& cfg, const Topology& topo,
             const RoutingAlgorithm& algo, NetworkStats* stats, Rng rng,
             InjectorOutbox* outbox = nullptr);

    /**
     * Queue a message for transmission. Returns false (and counts a
     * drop) when the source queue is full.
     */
    bool enqueue(const PendingMessage& msg);

    // --- Delivery phase ----------------------------------------------

    /** Credit back from the local router's injection input VC. */
    void acceptCredit(std::uint32_t inj_channel, VcId vc);

    /** Backward kill reached the source: abort and schedule a retry. */
    void acceptAbort(std::uint32_t inj_channel, VcId vc, MsgId msg);

    // --- Compute phase -------------------------------------------------

    /** Advance one cycle; fills the outbox. */
    CRNET_HOT_PATH
    void tick(Cycle now);

    /** Flits entering injection channels this cycle (the outbox's). */
    std::vector<InjectedFlit>& sent;
    /** The worm headers of the heads in `sent`, in order. */
    std::vector<WormHeader>& sentHeaders;

    /**
     * Order-sensitive events of this tick, for the owner to apply.
     * tick() only counts (Counters commute); the ledger refusal of a
     * give-up and the Welford adds of a measured commit depend on
     * their order across nodes, so the injector stages them here and
     * the Network applies them in node order. Cleared at tick entry.
     */
    std::vector<FailedMessage> failed;
    std::vector<CommittedSample> committedStats;

    // --- Introspection ---------------------------------------------------

    /** Worms currently transmitting. */
    std::uint32_t activeWorms() const;

    /** Messages waiting (or backing off) in the source queue. */
    std::size_t queueLength() const { return queue_.size(); }

    /** True when enqueue() would drop. */
    bool queueFull() const;

    /** True when nothing is queued or in flight at this source. */
    bool idle() const;

    /**
     * Earliest future cycle at which tick() could change any state
     * (active-set scheduler contract, see docs/PERFORMANCE.md):
     * `now + 1` while a worm is active or a retry is pending, the
     * nearest cooldown-exit or backoff expiry otherwise, kNeverCycle
     * when the injector is fully idle. May be conservative (early) —
     * a tick before the returned cycle is a state no-op — but never
     * late.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Forensic snapshot of one injection slot (watchdog dump). */
    struct SlotProbe
    {
        bool active = false;
        MsgId msg = kInvalidMsg;
        NodeId dst = kInvalidNode;
        std::uint16_t attempt = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t wireLen = 0;
        std::uint32_t credits = 0;
        Cycle stallCycles = 0;
    };
    SlotProbe slotProbe(std::uint32_t ch, VcId vc) const;

    // --- Audit probes (see src/sim/audit.hh) --------------------------

    /** Attach the invariant auditor (null to detach). */
    void setAuditor(Auditor* audit) { audit_ = audit; }

    /** Attach the event tracer (null to detach; the default). */
    void setTracer(Tracer* trace) { trace_ = trace; }

    /** Credit counter of one (channel, VC) slot. */
    std::uint32_t slotCredits(std::uint32_t ch, VcId vc) const;

    /** True while a slot sits in its post-kill cooldown window. */
    bool slotInCooldown(std::uint32_t ch, VcId vc) const;

    // --- Checkpoint support (snapshot.hh) -----------------------------

    /**
     * Snapshot field list: source queue, pending retries, per-slot
     * worm state, busy-destination set (sorted) and the RNG stream.
     * The outbox and channelUsed_ are cleared at tick entry and need
     * not round-trip.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

    /** Restore's last step: rebuild the queue minimum, empty outboxes. */
    void afterRestore();

  private:
    struct Slot
    {
        enum class State { Free, Active, Cooldown };

        State state = State::Free;
        std::uint32_t credits = 0;
        Cycle cooldownUntil = 0;

        // Valid while Active:
        PendingMessage msg;
        std::uint32_t wireLen = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t hops = 0;
        Cycle startCycle = 0;
        Cycle stallCycles = 0;
    };

    Slot& slot(std::uint32_t ch, VcId vc);
    const Slot& slot(std::uint32_t ch, VcId vc) const;
    /** True while busyDests_ holds `dst`. */
    bool destBusy(NodeId dst) const;
    /** Add `dst` to busyDests_, keeping it sorted (set semantics). */
    CRNET_ALLOW("alloc",
                "busyDests_ holds at most one entry per slot and is "
                "reserved to the slot count at construction, so this "
                "insert never grows it")
    void markDestBusy(NodeId dst);
    /** Remove `dst` from busyDests_ (a no-op when absent). */
    void releaseDest(NodeId dst);
    void startWorms(Cycle now);
    void checkTimeouts(Cycle now);
    CRNET_ALLOW("alloc",
                "a flit and its head's header land in out_, reserved "
                "to one flit per injection channel (InjectorOutbox); a "
                "measured commit stages into committedStats, which the "
                "Network drains every tick and which keeps its "
                "capacity, so it grows only to one commit per channel")
    void injectFlits(Cycle now);
    void killWorm(std::uint32_t ch, VcId vc, Cycle now);
    CRNET_ALLOW("alloc",
                "a give-up stages into failed, which the Network drains "
                "every tick and which keeps its capacity, so it grows "
                "only to its high-water mark of one per slot")
    void requeueForRetry(PendingMessage msg, Cycle now);
    WireFlit buildFlit(const Slot& s, std::uint32_t seq) const;
    /** The header of the worm in `s`, whose head goes out `now`. */
    WormHeader buildHeader(const Slot& s, Cycle now) const;
    bool timeoutExpired(const Slot& s, Cycle now) const;
    /** Rescan queue_ for the exact min notBefore (erase-of-min). */
    void recomputeQueueMin();

    NodeId node_;
    const SimConfig& cfg_;
    const Topology& topo_;
    const RoutingAlgorithm& algo_;
    NetworkStats* stats_;
    Auditor* audit_ = nullptr;
    Tracer* trace_ = nullptr;
    Rng rng_;

    RingDeque<PendingMessage> queue_;
    /**
     * Exact minimum notBefore over queue_ (kNeverCycle when empty),
     * maintained incrementally so nextEventCycle() never rescans a
     * deep backoff queue. Pushes min-update in O(1); erasing the
     * minimum (a worm start) triggers the one O(queue) rescan.
     * Derived state: recomputed, not serialized, on restore.
     */
    Cycle queueMinNotBefore_ = kNeverCycle;
    /** Aborts accepted during delivery, requeued at the next tick. */
    RingDeque<PendingMessage> pendingRetries_;
    std::vector<Slot> slots_;  //!< [channel][vc] flattened.
    /**
     * Destinations of unfinished worms, ascending: a set, flat. Each
     * worm start inserts its destination and each worm end (commit,
     * retry, give-up) erases it, so it never holds more entries than
     * there are slots.
     */
    std::vector<NodeId> busyDests_;
    std::vector<VcId> rrVc_;   //!< Injection arbitration per channel.
    std::uint64_t channelUsed_ = 0;  //!< Bit ch: channel ch sent.
};

template <typename Self, typename Io>
void
Injector::serialize(Self& self, Io& io)
{
    const auto message = [&](auto& m) { PendingMessage::serialize(m, io); };
    io.seq(self.queue_, message);
    io.seq(self.pendingRetries_, message);
    for (auto& s : self.slots_) {
        io.u8(s.state);
        io.u32(s.credits);
        io.u64(s.cooldownUntil);
        message(s.msg);
        io.u32(s.wireLen);
        io.u32(s.nextSeq);
        io.u32(s.hops);
        io.u64(s.startCycle);
        io.u64(s.stallCycles);
    }
    // Kept sorted: the bytes of a set listed in ascending order.
    io.seq(self.busyDests_, [&](auto& dst) { io.u32(dst); });
    for (auto& vc : self.rrVc_)
        io.u16(vc);
    io.rng(self.rng_);
}

} // namespace crnet

#endif // CRNET_NIC_INJECTOR_HH
