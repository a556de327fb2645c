/**
 * @file
 * Message reception interface — the paper's Fig. 8 hardware in
 * software.
 *
 * The receiver assembles worms arriving over the ejection channels,
 * strips PAD flits, and implements the sink half of the protocols:
 *
 *  - CR: deliver on tail arrival; discard partial messages when a
 *    forward kill token arrives.
 *  - FCR: check every payload flit (checksum + destination match) as
 *    it reaches the head of its buffer. On an error the receiver
 *    *refuses to consume* — it withholds flow control, the worm backs
 *    up, the source's timeout fires, and the normal CR kill/retry
 *    machinery recovers. The error signal is the absence of
 *    compression, which is what lets FCR avoid acknowledgement
 *    traffic entirely. Pad and tail flits carry no data and are
 *    exempt from the check (a fault there is harmless, and refusing
 *    on one could slip past the padding window).
 *
 * Under dynamic faults (setDynamicFaults) the receiver additionally
 * owns the sink half of mid-flight link-death recovery: a kill token
 * that terminates a worm first folds the already-buffered flits into
 * the assembly, then *finalizes* the message if the payload is
 * complete (FCR's round-trip padding guarantees exactly this for any
 * post-commit cut) instead of discarding it; deliveries whose
 * (src, pairSeq) was already seen are suppressed silently (the
 * retransmission racing a finalize); and a starvation timeout
 * resolves assemblies whose worm went quiet without a kill ever
 * arriving, tearing the stranded ejection reservation down with a
 * receiver-issued backward kill.
 *
 * The receiver also checks the per-(src,dst) sequence number of every
 * delivered message, counting order violations and duplicates — the
 * paper's order-preservation and exactly-once claims become measured
 * invariants.
 */

#ifndef CRNET_NIC_RECEIVER_HH
#define CRNET_NIC_RECEIVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/core/annotations.hh"
#include "src/core/metrics.hh"
#include "src/router/buffer.hh"
#include "src/router/flit.hh"
#include "src/sim/config.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/types.hh"

namespace crnet {

class Auditor;
class Tracer;

/** A fully received message, as reported to the delivery sink. */
struct DeliveredMessage
{
    MsgId id = kInvalidMsg;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint32_t payloadLen = 0;
    std::uint32_t pairSeq = 0;
    Cycle createdAt = 0;
    Cycle headInjectedAt = 0;
    Cycle deliveredAt = 0;
    std::uint16_t attempts = 0;  //!< Attempt index that succeeded + 1.
    bool measured = false;
    bool corrupted = false;      //!< Any payload flit failed its CRC.
};

/**
 * Consumer of completed messages: the receiver's only output for them.
 * The receiver counts each delivery (Counters commute) but leaves the
 * order-sensitive rest — latency accumulators, the delivery ledger,
 * explicit-send records — to the sink. In a Network the sink is the
 * shard context owning the receiver's node, which stages deliveries
 * for the Network to apply in node order after the tick.
 */
class DeliverySink
{
  public:
    virtual ~DeliverySink() = default;
    virtual void onDelivered(const DeliveredMessage& msg) = 0;
};

/** A credit the receiver returns to the local router. */
struct ReceiverCredit
{
    std::uint32_t ejChannel = 0;
    VcId vc = kInvalidVc;
};

/**
 * What one receiver tick owes the local router. Cleared at tick entry;
 * valid until the next tick of any receiver bound to it.
 */
struct ReceiverOutbox
{
    std::vector<ReceiverCredit> credits;
    /** Backward kills (starvation timeouts; dynamic faults only). */
    std::vector<ReceiverCredit> bkills;

    ReceiverOutbox() = default;
    /** Reserve a credit per ejection channel, a bkill per its VC. */
    explicit ReceiverOutbox(const SimConfig& cfg);

    void clear();
};

/** Per-node sink interface. */
class Receiver
{
  private:
    /** Private outbox of a standalone receiver (else null). */
    std::unique_ptr<ReceiverOutbox> selfOutbox_;
    /** Where tick() emits: selfOutbox_ or the shard's outbox. */
    ReceiverOutbox& out_;

  public:
    /**
     * `sink` gets every completed message. Neither `stats` nor `sink`
     * may be null. tick() emits into `outbox`, which must outlive the
     * receiver; a standalone receiver (null) owns a private one.
     */
    Receiver(NodeId node, const SimConfig& cfg, NetworkStats* stats,
             DeliverySink* sink, ReceiverOutbox* outbox = nullptr);

    // The ejection buffers point into slots_.
    Receiver(const Receiver&) = delete;
    Receiver& operator=(const Receiver&) = delete;

    // --- Delivery phase ----------------------------------------------

    /**
     * A flit (or kill token) arrives over an ejection channel. `hdr`
     * is the worm header when the flit is a head, else null; it waits
     * with the head and moves into the assembly when the head is
     * consumed.
     */
    void acceptFlit(std::uint32_t ej_channel, VcId vc,
                    const WireFlit& flit, const WormHeader* hdr);

    /** The same for a whole Flit: its header rides along if a head. */
    void acceptFlit(std::uint32_t ej_channel, VcId vc, const Flit& flit)
    {
        acceptFlit(ej_channel, vc, flit, flit.header());
    }

    // --- Compute phase -------------------------------------------------

    /**
     * Consume up to one flit per ejection channel; the credits and
     * backward kills owed to the router go to the outbox.
     */
    CRNET_HOT_PATH
    void tick(Cycle now);

    // --- Introspection ---------------------------------------------------

    /** True when no flits are buffered and no assembly is open. */
    bool idle() const;

    /**
     * Earliest future cycle at which tick() could change any state
     * (active-set scheduler contract, see docs/PERFORMANCE.md):
     * `now + 1` while any ejection VC holds flits or a terminated
     * assembly awaits resolution, the next starvation-check boundary
     * that could fire otherwise, kNeverCycle when fully idle. May be
     * conservative (early) — a tick before the returned cycle is a
     * state no-op — but never late.
     */
    Cycle nextEventCycle(Cycle now) const;

    std::uint64_t deliveredCount() const { return delivered_; }

    /**
     * Arm the dynamic-fault sink machinery (kill-time finalize,
     * duplicate suppression, starvation timeout). Off by default so
     * fault-free configurations behave exactly as before.
     */
    void setDynamicFaults(bool on) { dynamicFaults_ = on; }

    /** Forensic snapshot of one open assembly (watchdog dump). */
    struct AssemblyProbe
    {
        MsgId msg = kInvalidMsg;
        NodeId src = kInvalidNode;
        std::uint16_t attempt = 0;
        std::uint32_t nextSeq = 0;
        std::uint32_t payloadLen = 0;
        Cycle lastFlitAt = 0;
    };
    /** The open assemblies, in MsgId order. */
    std::vector<AssemblyProbe> openAssemblies() const;

    // --- Audit probes (see src/sim/audit.hh) --------------------------

    /** Attach the invariant auditor (null to detach). */
    void setAuditor(Auditor* audit) { audit_ = audit; }

    /** Attach the event tracer (null to detach; the default). */
    void setTracer(Tracer* trace) { trace_ = trace; }

    /** Flits buffered in one ejection VC. */
    std::uint32_t occupancy(std::uint32_t ch, VcId vc) const;

    /** Flits buffered across all ejection VCs. */
    std::uint64_t bufferedFlits() const;

    // --- Checkpoint support (snapshot.hh) -----------------------------

    /**
     * Snapshot field list: ejection buffers, refusal state, open
     * assemblies and the exactly-once bookkeeping, each table in
     * ascending key order. The outbox is cleared at tick entry and
     * need not round-trip.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

    /** Restore's last step: empty the outboxes. */
    void afterRestore();

  private:
    struct VcBuffer
    {
        FlitBuffer buf;  //!< Ring over this VC's slice of slots_.
        bool refusing = false;
        MsgId refusedMsg = kInvalidMsg;
        /** Header of the buffered head (at most one is buffered). */
        WormHeader header;
    };

    struct Assembly
    {
        NodeId src = kInvalidNode;
        std::uint16_t attempt = 0;
        std::uint32_t nextSeq = 0;
        bool corrupted = false;

        /**
         * The head's worm header: what delivery reports, and what
         * lets a kill-terminated assembly still be finalized into a
         * full DeliveredMessage.
         */
        WormHeader header;
        // Dynamic-fault bookkeeping.
        std::uint32_t ejChannel = 0;
        VcId vc = 0;
        Cycle lastFlitAt = 0;
        bool terminated = false;  //!< Kill seen; resolve next tick.
    };

    /** True when `b` holds a head, whose header is `b.header`. */
    static bool headBuffered(const VcBuffer& b);
    VcBuffer& vcBuf(std::uint32_t ch, VcId vc);
    const VcBuffer& vcBuf(std::uint32_t ch, VcId vc) const;
    void consume(std::uint32_t ch, VcId vc, Cycle now);
    void deliver(MsgId msg, const Assembly& a, Cycle now);
    /**
     * Report assembly `a` of `msg` as delivered at `now`: build its
     * DeliveredMessage, count, check and trace it, and hand it to the
     * sink.
     */
    void commitDelivery(MsgId msg, const Assembly& a, Cycle now);
    CRNET_ALLOW("alloc",
                "per-delivery exactly-once bookkeeping: one seen-set "
                "node per delivered message, by design")
    void checkDeliveryOrder(NodeId src, std::uint32_t pair_seq);
    void drainIntoAssembly(std::uint32_t ch, VcId vc, MsgId msg);
    void resolveTerminated(MsgId msg, Assembly& a, Cycle now);
    /** Resolve kill-terminated assemblies, in MsgId order. */
    void resolveAllTerminated(Cycle now);
    /** Salvage assemblies whose worm went quiet, in MsgId order. */
    void checkStarvation(Cycle now);

    NodeId node_;
    const SimConfig& cfg_;
    NetworkStats* stats_;
    DeliverySink* sink_;
    Auditor* audit_ = nullptr;
    Tracer* trace_ = nullptr;

    std::vector<WireFlit> slots_; //!< [channel][vc][depth] flattened.
    std::vector<VcBuffer> bufs_;  //!< [channel][vc] flattened.
    std::vector<VcId> rrVc_;      //!< Consumption RR per channel.
    std::map<MsgId, Assembly> assemblies_;
    /**
     * Exactly-once / order bookkeeping. A delivery whose pairSeq was
     * already seen is a duplicate; one below the last delivered
     * sequence of its source is a reorder (order violation). The
     * seen-set distinguishes the two (a plain expected-counter cannot
     * tell a late arrival from a true duplicate).
     *
     * The last-sequence table holds only the sources that delivered
     * here, so it stays small on a network of any size.
     */
    SortedTable<NodeId, std::int64_t> lastSeq_;
    std::set<std::uint64_t> seenSeq_;  //!< (src<<32)|seq.
    std::uint64_t delivered_ = 0;

    bool dynamicFaults_ = false;
    /** Cycles between starvation scans (tick only acts on multiples). */
    static constexpr Cycle kStarvationCheckPeriod = 64;
    /**
     * Starvation backstop: far beyond any legitimate stall (the
     * source timeout resolves those), so it only fires when the
     * worm's kill was lost to cascading link deaths. A spurious fire
     * is still safe — it acts like a receiver-side path-wide kill.
     */
    Cycle starvationThreshold_ = 0;
};

template <typename Self, typename Io>
void
Receiver::serialize(Self& self, Io& io)
{
    for (auto& vb : self.bufs_) {
        io.seq(vb.buf, [&](auto& f) { WireFlit::serialize(f, io); });
        // The header is live only while its head is buffered.
        if (headBuffered(vb))
            WormHeader::serialize(vb.header, io);
        io.b(vb.refusing);
        io.u64(vb.refusedMsg);
    }
    for (auto& vc : self.rrVc_)
        io.u16(vc);
    io.sorted(self.assemblies_, [&](auto& id, auto& a) {
        io.u64(id);
        io.u32(a.src);
        io.u16(a.attempt);
        io.u32(a.nextSeq);
        io.b(a.corrupted);
        WormHeader::serialize(a.header, io);
        io.u32(a.ejChannel);
        io.u16(a.vc);
        io.u64(a.lastFlitAt);
        io.b(a.terminated);
    });
    io.sorted(self.lastSeq_, [&](auto& src, auto& seq) {
        io.u32(src);
        io.i64(seq);
        if (src >= self.cfg_.numNodes())
            panic("restored table key ", src, " is out of range");
    });
    io.sorted(self.seenSeq_, [&](auto& key) { io.u64(key); });
    io.u64(self.delivered_);
    io.b(self.dynamicFaults_);
}

} // namespace crnet

#endif // CRNET_NIC_RECEIVER_HH
