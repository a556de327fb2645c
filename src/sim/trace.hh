/**
 * @file
 * Structured worm-lifecycle event tracing.
 *
 * The tracer records one event per protocol-visible transition of a
 * worm — injection, per-hop header advance, first blocked cycle of a
 * stall episode, source timeout, kill/bkill hops, retransmission,
 * commit, delivery/discard — plus fault events and dead-wire losses.
 * On flush it writes two files:
 *
 *   <prefix>.jsonl  One JSON object per line (grep/jq-friendly).
 *   <prefix>.json   Chrome trace-event format: instant events on a
 *                   per-node track plus one async span per message
 *                   (inject -> deliver/giveup). Loadable in Perfetto
 *                   (ui.perfetto.dev) or chrome://tracing.
 *
 * Enabling: the `trace=` SimConfig key names the output prefix ("" =
 * disabled). The `watch=` key restricts recording to a
 * comma-separated list of message ids and/or `src-dst` node pairs;
 * events that carry no src/dst (kill hops) still match once their
 * message was adopted at injection time.
 *
 * Cost: components hold a `Tracer*` that is null when tracing is off,
 * so the disabled hot path is a single pointer test. A Tracer
 * constructed with an empty prefix is inert (records nothing,
 * allocates nothing).
 */

#ifndef CRNET_SIM_TRACE_HH
#define CRNET_SIM_TRACE_HH

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/annotations.hh"
#include "src/sim/types.hh"

namespace crnet {

/** Worm-lifecycle event taxonomy (see docs/OBSERVABILITY.md). */
enum class TraceEventKind : std::uint8_t {
    Inject,       //!< Head flit entered the injection channel.
    Commit,       //!< Tail injected: CR commit point.
    HeadAdvance,  //!< Header won a VC allocation at a router.
    Block,        //!< First blocked cycle of a stall episode.
    SourceKill,   //!< Source timeout fired (PDS detected).
    RouterKill,   //!< Router-initiated kill (path-wide/drop schemes).
    KillHop,      //!< Forward kill token traversed a hop.
    BkillHop,     //!< Backward kill tore down one hop.
    Abort,        //!< Backward kill reached the source.
    Retransmit,   //!< Killed message requeued with a backoff gap.
    GiveUp,       //!< maxRetries exhausted; message failed.
    Deliver,      //!< Tail consumed (or assembly finalized).
    Discard,      //!< Partial assembly dropped by a kill/timeout.
    Fault,        //!< A FaultSchedule event fired.
    LinkLoss      //!< In-flight flit absorbed by a dead wire.
};

/** Stable lowercase event name ("inject", "head_advance", ...). */
const char* toString(TraceEventKind k);

/** One recorded event. Fields not meaningful for a kind stay invalid. */
struct TraceEvent
{
    Cycle at = 0;
    TraceEventKind kind = TraceEventKind::Inject;
    MsgId msg = kInvalidMsg;
    NodeId node = kInvalidNode;  //!< Where the event happened.
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint16_t attempt = 0;
    /**
     * Kind-specific detail: output port (HeadAdvance/KillHop), input
     * port (Block/RouterKill/BkillHop/LinkLoss), stall cycles
     * (SourceKill), backoff gap (Retransmit), latency (Deliver),
     * fault-event kind (Fault).
     */
    std::uint64_t arg = 0;
};

/** Event recorder with a watch-list filter and two-format flush. */
class Tracer
{
  public:
    /**
     * @param prefix     Output file prefix; empty = inert tracer.
     * @param watch_spec Watch list ("" = record everything). Comma-
     *                   separated message ids and/or `src-dst` pairs.
     */
    Tracer(std::string prefix, const std::string& watch_spec);

    /** Flushes (see flush()) if the caller has not. */
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Set the timestamp recorded on subsequent events. */
    void beginCycle(Cycle now) { now_ = now; }

    /**
     * Thread-local staging for sharded ticks. While a non-null stage
     * is installed on the calling thread, record() appends the raw
     * event tuple there — unfiltered, because the watch filter's
     * pair-adoption mutates shared state — and the Network replays
     * the staged tuples through record() serially, in deterministic
     * shard/phase order, after the shard barrier. Pass null to
     * restore direct recording (the default on every thread).
     */
    static void setThreadStage(std::vector<TraceEvent>* stage);

    /**
     * Record one event, subject to the watch filter. A pair match
     * adopts the message id, so later events of the same worm that
     * carry no src/dst (kill tokens) still match.
     */
    CRNET_ALLOW("alloc",
                "event-buffer append and watch-filter adoption: "
                "tracing runs trade steady-state allocation freedom "
                "for observability by construction")
    void record(TraceEventKind kind, MsgId msg, NodeId node,
                NodeId src, NodeId dst, std::uint16_t attempt,
                std::uint64_t arg = 0);

    /** True when `record` with these fields would keep the event. */
    bool wants(MsgId msg, NodeId src, NodeId dst) const;

    const std::vector<TraceEvent>& events() const { return events_; }

    std::string jsonlPath() const { return prefix_ + ".jsonl"; }
    std::string chromePath() const { return prefix_ + ".json"; }

    /**
     * Write both output files. Idempotent; called by the destructor,
     * but callable earlier to read the files while the network lives.
     * Result-affecting: trace bytes are compared across schedulers
     * and jobs=N configurations, so emission order must not depend
     * on hash order.
     */
    CRNET_RESULT_AFFECTING
    void flush();

    /**
     * Snapshot field list (snapshot.hh): event buffer, adopted watch
     * ids and current cycle. Config-derived fields (prefix, parsed
     * watch list) are reconstructed by the constructor.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    bool pairMatches(NodeId src, NodeId dst) const;
    void writeJsonl() const;
    void writeChrome() const;

    std::string prefix_;
    bool enabled_ = false;
    bool watchAll_ = true;
    std::set<MsgId> watchedMsgs_;
    std::vector<std::pair<NodeId, NodeId>> watchedPairs_;
    std::vector<TraceEvent> events_;
    Cycle now_ = 0;
    bool flushed_ = false;

    /** Per-thread staging buffer (null = record directly). */
    static thread_local std::vector<TraceEvent>* tlsStage_;
};

template <typename Self, typename Io>
void
Tracer::serialize(Self& self, Io& io)
{
    io.seq(self.events_, [&](auto& e) {
        io.u64(e.at);
        io.u8(e.kind);
        io.u64(e.msg);
        io.u32(e.node);
        io.u32(e.src);
        io.u32(e.dst);
        io.u16(e.attempt);
        io.u64(e.arg);
    });
    io.sorted(self.watchedMsgs_, [&](auto& id) { io.u64(id); });
    io.u64(self.now_);
}

} // namespace crnet

#endif // CRNET_SIM_TRACE_HH
