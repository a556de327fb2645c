/**
 * @file
 * The assembled network: topology + routers + NICs + traffic + faults,
 * advanced one cycle at a time.
 *
 * Cycle model: every channel (router-router, injection, ejection) has
 * one cycle of latency. Each tick delivers everything sent last cycle,
 * lets injectors/routers/receivers compute, then stages their output
 * for the next delivery. All credit and kill signaling rides the same
 * one-cycle channels.
 */

#ifndef CRNET_CORE_NETWORK_HH
#define CRNET_CORE_NETWORK_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/core/annotations.hh"
#include "src/core/metrics.hh"
#include "src/fault/fault_model.hh"
#include "src/fault/fault_schedule.hh"
#include "src/sim/audit.hh"
#include "src/nic/injector.hh"
#include "src/nic/receiver.hh"
#include "src/router/router.hh"
#include "src/routing/routing.hh"
#include "src/sim/config.hh"
#include "src/sim/parallel.hh"
#include "src/sim/rng.hh"
#include "src/sim/trace.hh"
#include "src/topology/topology.hh"
#include "src/traffic/generator.hh"

namespace crnet {

class DeliveryLedger;
class Tracer;
class TimeSeries;
class StateWriter;
class StateReader;

/** A complete simulated network. */
class Network
{
  public:
    /** Build a network from a validated configuration. */
    explicit Network(const SimConfig& cfg);
    ~Network();

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /**
     * Advance one cycle. Hot path: no heap allocation may be
     * reachable from here in steady state (rule `alloc`; deliberate
     * amortized-growth and diagnostic sites carry CRNET_ALLOW).
     * Result-affecting: everything under the tick shapes reported
     * results, so no hash-ordered iteration may be reachable either
     * (rule `unordered-iter`).
     */
    CRNET_HOT_PATH CRNET_RESULT_AFFECTING
    void tick();

    /** Advance `n` cycles: `n` calls to tick(). */
    void run(Cycle n);

    Cycle now() const { return now_; }

    // --- Workload control -------------------------------------------

    /** Enable/disable the synthetic traffic generator. */
    void setTrafficEnabled(bool on) { trafficEnabled_ = on; }

    /** Mark newly generated messages as measured (stats window). */
    void setMeasuring(bool on) { measuring_ = on; }

    /**
     * Send one explicit message (examples/tests). Returns its id, or
     * kInvalidMsg if the source queue was full. Delivery of explicit
     * messages can be queried with isDelivered()/deliveryRecord().
     */
    MsgId sendMessage(NodeId src, NodeId dst,
                      std::uint32_t payload_len, bool measured = true);

    bool isDelivered(MsgId id) const;

    /** Delivery record of an explicit message (null until arrival). */
    const DeliveredMessage* deliveryRecord(MsgId id) const;

    // --- State queries -------------------------------------------------

    /**
     * True when no flit has moved anywhere for deadlockThreshold
     * cycles while work remains — the watchdog that detects true
     * wormhole deadlock (used by the no-protocol demo).
     */
    bool deadlocked() const;

    /** No queued, in-flight or partially assembled message anywhere. */
    bool quiescent() const;

    /** All measured messages accounted for (delivered or failed). */
    bool measuredDrained() const;

    /** Events staged in the waves, by kind (see inFlight()). */
    struct WaveCensus
    {
        // Router-bound.
        std::uint64_t flits = 0;  //!< Kill tokens included.
        std::uint64_t credits = 0;
        std::uint64_t bkills = 0;
        // NIC-bound.
        std::uint64_t ejections = 0;  //!< Flits for the receiver.
        std::uint64_t injCredits = 0;
        std::uint64_t aborts = 0;
    };

    /**
     * Events in flight to nodes [begin, end): what a snapshot taken
     * now would carry for them.
     */
    WaveCensus inFlight(NodeId begin, NodeId end) const;

    const NetworkStats& stats() const { return stats_; }
    NetworkStats& stats() { return stats_; }
    const SimConfig& config() const { return cfg_; }
    const Topology& topology() const { return *topo_; }
    FaultModel& faults() { return *faults_; }
    const RoutingAlgorithm& routing() const { return *routing_; }
    Injector& injector(NodeId n) { return *injectors_[n]; }
    Receiver& receiver(NodeId n) { return *receivers_[n]; }
    Router& router(NodeId n) { return *routers_[n]; }
    TrafficGenerator& generator() { return *generator_; }

    /** The invariant auditor, or null when compiled out. */
    Auditor* auditor() { return audit_.get(); }

    // --- Observability (see docs/OBSERVABILITY.md) --------------------

    /** The event tracer, or null when tracing is disabled. */
    Tracer* tracer() { return trace_.get(); }

    /** Collected time-series samples (empty unless sample_interval). */
    std::vector<TimeSeriesSample> timeseriesSamples() const;

    /**
     * Channel-heat snapshot (per-router occupancy integral, per-port
     * forwarded flits and blocked cycles). Null unless heatmap=1.
     */
    std::shared_ptr<const HeatmapData> collectHeatmap() const;

    /**
     * Attach the per-run self-profiler (src/sim/telemetry.hh); null
     * detaches. Off the results path: an unprofiled run pays exactly
     * one null-pointer branch per hook, and a profiled run's results
     * are byte-identical to an unprofiled one. Attaching also caches
     * the scheduler/occupancy gauges of the process-wide telemetry
     * registry, refreshed on the profiler's sampled ticks.
     */
    void attachProfiler(TickProfiler* prof);

    /** Messages counted into the measurement window. */
    std::uint64_t measuredCreated() const { return measuredCreated_; }

    // --- Dynamic faults ------------------------------------------------

    /** The fault schedule, or null when no dynamic faults configured. */
    const FaultSchedule* schedule() const { return schedule_.get(); }

    /**
     * Fire one fault event right now, regardless of its `at` field
     * (tests and interactive experiments). Arms the dynamic-fault
     * machinery on first use if the config did not.
     */
    void injectFaultEvent(const FaultEvent& ev);

    /**
     * Attach the campaign delivery ledger: every accepted message is
     * recorded, every delivery/failure resolves its entry. Null to
     * detach.
     */
    void attachLedger(DeliveryLedger* ledger) { ledger_ = ledger; }

    /**
     * Write the deadlock-forensics report: dead links, stuck input
     * VCs (with the oldest blocked header), injector slots, open
     * assemblies and the occupancy heatmap. Also emitted through
     * warn() automatically the first time the watchdog fires under
     * dynamic faults.
     */
    CRNET_RESULT_AFFECTING
    void dumpForensics(std::ostream& os) const;

    /**
     * Write an ASCII buffer-occupancy heatmap (2D topologies render
     * as a grid, others as a list). Each cell is the number of flits
     * buffered in that node's router — after a deadlock this shows
     * the wedged worm cycle directly.
     */
    CRNET_RESULT_AFFECTING
    void dumpOccupancy(std::ostream& os) const;

    // --- Checkpoint/restore (see docs/ROBUSTNESS.md) ------------------

    /**
     * Serialize every field the tick mutates — stats, RNG streams,
     * wave buckets, router/NIC state, the scheduler's wake tables,
     * sidecars (tracer/timeseries/auditor) and the attached ledger —
     * in a fixed, sorted, little-endian layout (serialize()).
     * Prefer captureSnapshot()/restoreSnapshot() (snapshot.hh), which
     * pair the payload with the config fingerprint a restore checks.
     */
    CRNET_RESULT_AFFECTING
    void saveState(StateWriter& w) const;

    /**
     * Overwrite this network's mutable state from a saveState()
     * payload. The network must have been constructed from a config
     * with the same configFingerprint(); continuing afterwards is
     * byte-identical to the uninterrupted run.
     */
    CRNET_RESULT_AFFECTING
    void loadState(StateReader& r);

  private:
    struct ShardCtx;

    // Staged (next-cycle) deliveries. `node` is always the
    // destination. A head's `header` indexes the header lane of the
    // segment holding the event; every other flit has kNoHeader.
    struct PendingFlit
    {
        WireFlit flit;
        NodeId node;
        /** A port below networkPorts() is a router-to-router hop. */
        PortId inPort;
        VcId vc;
        std::uint32_t header;
    };
    struct PendingRecvFlit
    {
        WireFlit flit;
        NodeId node;
        std::uint16_t ejChannel;
        VcId vc;
        std::uint32_t header;
    };
    // The flit records dominate wave memory and delivery traffic.
    static_assert(sizeof(PendingFlit) <= 48,
                  "PendingFlit must stay one WireFlit plus 16 bytes");
    static_assert(sizeof(PendingRecvFlit) <= 48,
                  "PendingRecvFlit must stay one WireFlit plus 16 bytes");
    struct PendingCredit
    {
        NodeId node;
        PortId outPort;
        VcId vc;
    };
    struct PendingInjCredit
    {
        NodeId node;
        std::uint32_t injChannel;
        VcId vc;
    };
    struct PendingBkill
    {
        NodeId node;
        PortId outPort;
        VcId vc;
    };
    struct PendingAbort
    {
        NodeId node;
        std::uint32_t injChannel;
        VcId vc;
        MsgId msg;
    };

    /**
     * Most runs one segment holds: at channel_latency > 1 the router
     * run of cycle b - L, then the injector, router and receiver runs
     * of cycle b - 1 (a restored bucket is one run in place of the
     * first).
     */
    static constexpr std::uint32_t kMaxRuns = 4;

    /** One kind of staged event, with the start of each run. */
    template <typename T>
    struct Lane
    {
        std::vector<T> events;
        /** events[runStart[r]] is the first event of run r. */
        std::array<std::uint32_t, kMaxRuns> runStart{};
    };

    /**
     * A router-bound lane, which each shard delivers to its own range.
     * It also lists the events addressed outside the segment's shard
     * (its remote list), so a worker reads only those of other shards'
     * segments.
     */
    template <typename T>
    struct OwnedLane : Lane<T>
    {
        /** Indices of the events addressed outside the shard. */
        std::vector<std::uint32_t> remote;
        /** remote[remoteStart[r]] is the first remote index of run r. */
        std::array<std::uint32_t, kMaxRuns> remoteStart{};

        /** Append `e`; `away` lists it as addressed elsewhere. */
        void push(const T& e, bool away)
        {
            if (away)
                remote.push_back(
                    static_cast<std::uint32_t>(this->events.size()));
            this->events.push_back(e);
        }
    };

    /**
     * The events one shard staged for one delivery cycle, as runs:
     * each (push cycle, phase) the shard collected opens one run in
     * every bucket that phase pushes into. Every shard opens the same
     * runs, so run r means the same (cycle, phase) in every segment.
     */
    struct alignas(64) Segment  // Own cache lines: one writer each.
    {
        OwnedLane<PendingFlit> flits;
        Lane<PendingRecvFlit> recvFlits;
        OwnedLane<PendingCredit> credits;
        Lane<PendingInjCredit> injCredits;
        OwnedLane<PendingBkill> bkills;
        Lane<PendingAbort> aborts;
        /** Worm headers of the staged heads (PendingFlit::header). */
        std::vector<WormHeader> headers;
        std::uint32_t runs = 0;

        /** Start the next run at the current end of every lane. */
        void openRun();
        void clear();
        bool empty() const;
        /** Events staged, all kinds. */
        std::size_t size() const;
    };

    /**
     * One delivery cycle's events, one segment per source shard. The
     * serial order — the order one shard would have pushed them in —
     * is run-major, shard-minor, because shards are contiguous
     * ascending node ranges.
     */
    struct Wave
    {
        std::vector<Segment> segs;

        void clear();
        bool empty() const;
    };

    /**
     * Visit a wave's events of one kind in the serial order, as
     * fn(event, segment holding it) (`W` is Wave or const Wave).
     */
    template <typename W, typename L, typename Fn>
    static void forEachInOrder(W& wave, L Segment::*lane, Fn&& fn);

    /**
     * Visit the current bucket's events of one router-bound kind
     * addressed to `owner`'s range, in the serial order: the owner's
     * own segment plus the other segments' remote lists.
     */
    template <typename T, typename Fn>
    void forEachAddressed(Wave& wave, OwnedLane<T> Segment::*lane,
                          unsigned owner, Fn&& fn);

    /**
     * The serial step's flit pass, on the ticking thread and in the
     * serial order (run only when faults can fire): it draws each
     * network hop's corruption from the one fault stream and absorbs
     * the flits on dead wires, recording their LinkLoss events (a
     * tombstone, kInvalidNode, hides them from every owner).
     */
    void deliverFaultPass();

    /**
     * Shard `s`'s delivery of the NIC-bound events in its own segment:
     * ejection flits to its receivers, injection credits and aborts to
     * its injectors. A router stages these only for its own node's
     * NIC, so they never leave the shard. The receivers' Discard
     * records go to the shard's discardTrace, the injectors' Abort
     * records to its abortTrace.
     */
    void deliverNic(unsigned s);

    /**
     * Shard `s`'s delivery of the router-bound flits, credits and
     * backward kills addressed to its range, in the serial order. It
     * records nothing and draws nothing, and counts the credits and
     * backward kills lost on dead wires into the shard's block.
     */
    void deliverOwned(unsigned s);
    void generate();
    /**
     * Queue a message at its source injector and account for it:
     * generated and measured counts and the attached ledger. The one
     * acceptance path of generate() and sendMessage().
     */
    void accept(const PendingMessage& msg);
    /**
     * Stage what node `n`'s component just emitted into the shard
     * outbox of `ctx` into the shard's segments: `next` is the segment
     * of the bucket one cycle out, `far` the one channel_latency
     * cycles out (the same when the latency is 1). A router's hops
     * into another shard's range also go on `far`'s remote lists.
     */
    void collectInjector(const ShardCtx& ctx, Segment& next, NodeId n);
    void collectRouter(const ShardCtx& ctx, Segment& next, Segment& far,
                       NodeId n);
    void collectReceiver(const ShardCtx& ctx, Segment& next, NodeId n);
    std::uint64_t activityLevel() const;

    // --- The cycle loop (see docs/PERFORMANCE.md) -------------------
    //
    // Only components whose wake entry is due (<= now_) are ticked.
    // Anything receiving a delivery, a new message or a fault teardown
    // is woken for the same cycle (entry 0). A ticked injector or
    // receiver stores its nextEventCycle(): now_ + 1, a known future
    // deadline (cooldown exit, backoff expiry, starvation-check
    // boundary) or kNeverCycle. A ticked router stores kNeverCycle
    // once idle(), and otherwise stays due. Ticking a component before
    // its entry is a provable no-op, so over-waking is always safe;
    // the wake rules never under-wake, which is what keeps
    // `sched=active` bit-identical to `sched=sweep`: the same loop
    // with every entry zeroed at the top of each cycle.
    //
    // Every cycle runs one sequence, at every shard count. The node
    // array is cut into `shards` contiguous ranges (one range at
    // shards=1), and each shard owns its range for the whole cycle.
    // Two crew rounds run the shards: shard 0 on the ticking thread,
    // shards 1..K-1 on crew threads (no crew at shards=1: the rounds
    // are two calls on the ticking thread).
    //  1. The serial step, on the ticking thread: fault events and,
    //     when faults can fire, deliverFaultPass() (its corruption
    //     draws use one RNG stream in the serial order).
    //  2. Round 1, shardDeliver(): each shard delivers the NIC-bound
    //     events of its own segment, then the router-bound events
    //     addressed to its range.
    //  3. generate(), on the ticking thread: it must see every
    //     stale-abort requeue of round 1 through queueFull().
    //  4. Round 2, shardTick(): each shard ticks its due components,
    //     stores their next wake cycles and collects their outboxes
    //     into its own segment of each wave bucket. The >= 1-cycle
    //     channel latency is the synchronization slack: every
    //     cross-component effect is staged in the waves, so one
    //     cycle's deliveries and ticks touch only the owner's
    //     components.
    //  5. mergeShards(): everything order-sensitive — ledger calls,
    //     Welford accumulator adds, deliveries, trace records — was
    //     staged per shard and is applied here in node order, which
    //     keeps every result byte-identical to shards=1.

    /**
     * Run `body` for every shard: one crew round, or one call on the
     * ticking thread without a crew. The crew's join wait adds to
     * `sched.shard_barrier_wait_nanos` and to no profiler phase.
     */
    void runShards(void (Network::*body)(unsigned));

    /**
     * Round 1 of the cycle for shard `s`: with the shard's auditor
     * stage installed, deliverNic() then deliverOwned(). Shard 0 laps
     * the profiler's Deliver phase, which began with the tick.
     */
    CRNET_HOT_PATH CRNET_RESULT_AFFECTING
    void shardDeliver(unsigned s);

    /**
     * Round 2 of the cycle for shard `s`: with the tracer/auditor
     * staging areas installed, tick the due injectors, routers and
     * receivers of the range (in that phase order, each in node
     * order), store each one's next wake cycle, and collect each into
     * this shard's segments. Injector reports and deliveries go to the
     * shard's stages for mergeShards(). Shard 0, on the ticking
     * thread, laps the profiler's phases.
     */
    CRNET_HOT_PATH CRNET_RESULT_AFFECTING
    CRNET_ALLOW("alloc",
                "segment, header-lane, remote-list and stage appends "
                "land in capacity reserved at construction to the most "
                "the shard's range can stage per cycle (remote lists: "
                "one event per cross-range channel, one bkill per its "
                "VC), so the steady state never grows them")
    void shardTick(unsigned s);

    /**
     * The serial merge after round 2: fold audit stages, replay every
     * shard's staged Discard records and then every shard's Abort
     * records (round 1), then phase by phase and shard by shard replay
     * the staged tick records, apply injector reports and deliveries,
     * and fold the shard counters.
     */
    void mergeShards();

    /** Fold per-shard Counter blocks into the master stats block. */
    void foldShardCounters();

    /**
     * Apply an injector's staged give-ups (ledger refusals) and
     * measured-commit samples.
     */
    void applyInjectorReports(NodeId id);

    /**
     * Bill the time since profLapAt_ to `phase` and restart the lap
     * there (sampled ticks only).
     */
    void profileLap(TickPhase phase);

    /** Restart the lap now, billing the time since to no phase. */
    void profileSkip();

    /** Queue a component for this cycle's tick (idempotent). */
    void wakeInjector(NodeId id) { injWakeAt_[id] = 0; }
    void wakeRouter(NodeId id) { rtrWakeAt_[id] = 0; }
    void wakeReceiver(NodeId id) { rcvWakeAt_[id] = 0; }

    void applyFaultEvents();
    void applyOneFaultEvent(const FaultEvent& ev);
    /** Kill one directed channel's stranded worm state on both ends. */
    void teardownDirectedLink(NodeId u, PortId p);
    void repairDirectedLink(NodeId u, PortId p);

    /** Snapshot every credit ledger and run the invariant sweep. */
    CRNET_ALLOW("alloc",
                "audit builds only, once per audit_interval cycles: "
                "the sweep's fresh edge table is observation, and "
                "release builds compile the call out (CRNET_AUDIT)")
    void runAuditSweep();

    /**
     * One-shot deadlock diagnostic: format the forensics report and
     * warn() it. Split out of tick() so its string building can be
     * suppressed without exempting the tick itself.
     */
    CRNET_ALLOW("alloc",
                "one-shot deadlock diagnostic: fires at most once per "
                "run, after the simulation is already wedged")
    void reportDeadlockForensics();

    /** Append one time-series sample covering the last interval. */
    void takeSample();

    /**
     * Refresh the cached registry gauges (awake counts: wake entries
     * due next cycle; wave-ring occupancy; generator draws). Runs only
     * on the profiler's sampled ticks; allocation-free.
     */
    void sampleTelemetryGauges();

    /** True when wake entry `at` is due by the next cycle. */
    bool dueNext(Cycle at) const { return at <= now_ + 1; }

    /**
     * Instantaneous gauges for a time-series sample: in-flight worms
     * and buffered flits, read under the active scheduler from the
     * components due next cycle (a sleeping component's gauges are
     * provably zero) and from every component under sweep.
     */
    void sampleGauges(std::uint64_t& in_flight,
                      std::uint64_t& buffered) const;

    /** The bucket of cycle `c` (within the live window). */
    Wave& bucketOf(Cycle c) { return buckets_[c % buckets_.size()]; }
    const Wave& bucketOf(Cycle c) const
    {
        return buckets_[c % buckets_.size()];
    }

    /** Shard `s`'s segment of the bucket `delay` cycles from now. */
    Segment& segmentIn(unsigned s, Cycle delay)
    {
        return bucketOf(now_ + delay).segs[s];
    }

    /** A staged flit event with its head's header (heads only). */
    template <typename E>
    struct Headed
    {
        E event;
        WormHeader header;
    };

    /**
     * One snapshot bucket as the payload carries it: each kind's
     * events in the serial order, each head with its header.
     */
    struct ListedBucket
    {
        std::vector<Headed<PendingFlit>> flits;
        std::vector<Headed<PendingRecvFlit>> recvFlits;
        std::vector<PendingCredit> credits;
        std::vector<PendingInjCredit> injCredits;
        std::vector<PendingBkill> bkills;
        std::vector<PendingAbort> aborts;

        bool empty() const;
    };

    /**
     * The snapshot field list, run by saveState() and loadState().
     * `listed` holds one bucket per cycle of the live window, from
     * now_ on: listBuckets() on capture, filled here on restore and
     * placed by placeBuckets().
     */
    template <typename Self, typename Io, typename Buckets>
    static void serialize(Self& self, Io& io, Buckets& listed);

    /**
     * Capture: the live window's buckets in cycle order from now_,
     * each walked in the serial order.
     */
    std::vector<ListedBucket> listBuckets() const;

    /**
     * Restore: put each restored bucket into its cycle's wave: the
     * router-bound events into shard 0's segment with its remote
     * lists, each NIC-bound event into the segment of the shard that
     * owns its node, and each head's header into its segment's lane.
     */
    void placeBuckets(std::vector<ListedBucket>& listed);

    /** topo_->neighbor(n, p), read from the precomputed table. */
    NodeId neighborOf(NodeId n, PortId p) const
    {
        return neighbors_[static_cast<std::size_t>(n) *
                              topo_->numPorts() + p];
    }

    SimConfig cfg_;
    std::unique_ptr<Topology> topo_;
    /** Topology::neighborTable(): [node][network port]. */
    std::vector<NodeId> neighbors_;
    std::unique_ptr<Auditor> audit_;
    std::unique_ptr<Tracer> trace_;
    std::unique_ptr<TimeSeries> timeseries_;
    std::unique_ptr<FaultModel> faults_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    NetworkStats stats_;
    std::unique_ptr<TrafficGenerator> generator_;

    /**
     * Sharding degree (resolveShards(cfg.shards), clamped to the
     * node count). An execution knob like `jobs`: excluded from the
     * config fingerprint, and every result is byte-identical across
     * values.
     */
    unsigned shards_ = 1;
    /**
     * Structure-of-arrays backing store for every router's mutable
     * hot state (flit slots, VC books, arbitration pointers), indexed
     * by node id. Declared before routers_, which hold raw pointers
     * into it.
     */
    std::unique_ptr<Router::StatePool> routerPool_;
    /**
     * Per-shard Counter accumulation blocks (shards > 1 only; at
     * shards=1 the one block is stats_, see ShardCtx::stats).
     * Components of shard s write their Counter fields here, race-
     * free, and foldShardCounters() folds them into stats_ at the end
     * of every sweep and of injectFaultEvent(), so they are zero
     * between ticks. Components never write accumulators or
     * histograms: only the Network adds to those, from staged events.
     */
    std::vector<std::unique_ptr<NetworkStats>> shardStats_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Injector>> injectors_;
    std::vector<std::unique_ptr<Receiver>> receivers_;

    /**
     * Delivery buckets, one per cycle of the live window [now_,
     * now_ + channelLatency]: cycle c's bucket is
     * buckets_[c % buckets_.size()]. Router-to-router events mature
     * after channelLatency cycles; NIC-local events after one. A
     * bucket is cleared, segments and run marks alike, once its cycle
     * is delivered, and then serves cycle c + channelLatency + 1.
     */
    std::vector<Wave> buckets_;
    /** Router network ports (= injection/ejection port base). */
    PortId netPorts_ = 0;

    // Scheduler state: one wake table per component kind, holding per
    // node the first cycle at which that component's tick may change
    // state. A wake is one store of 0; each shard worker scans its
    // range of the tables in node order, which keeps the tick order —
    // and with it every wave, arbitration and RNG interleaving —
    // identical to the exhaustive sweep. An entry is written only by
    // the worker owning its node and by the ticking thread between
    // rounds (fault events, generate()), so nothing is staged for the
    // merge.
    bool activeSched_ = true;
    std::vector<Cycle> injWakeAt_, rtrWakeAt_, rcvWakeAt_;

    /**
     * Per-shard worker context: node range and merge stages. It is
     * the delivery sink of the receivers in its range.
     */
    struct alignas(64) ShardCtx final : DeliverySink
    {
        ShardCtx() = default;
        // Receivers hold this context's address as their sink.
        ShardCtx(const ShardCtx&) = delete;
        ShardCtx& operator=(const ShardCtx&) = delete;

        CRNET_ALLOW("alloc",
                    "per-shard delivery staging: amortized growth "
                    "only, steady-state-free (tests/test_alloc_steady.cc)")
        void onDelivered(const DeliveredMessage& msg) override
        {
            deliveries.push_back(msg);
        }

        NodeId begin = 0;  //!< First node of this shard's range.
        NodeId end = 0;    //!< One past the last node.
        /** The Counter block of the range's components and delivery. */
        NetworkStats* stats = nullptr;
        /**
         * The outboxes every component of the range emits into, one
         * per kind; each is collected right after the tick filling it.
         */
        InjectorOutbox injOut;
        RouterOutbox rtrOut;
        ReceiverOutbox rcvOut;
        // Staged for the serial merge, in node order; ranges are
        // contiguous, so shard-major iteration over these is global
        // node order.
        /** Injectors ticked with give-ups or commit samples to apply. */
        std::vector<NodeId> injReports;
        /** This cycle's completed messages, in node order. */
        std::vector<DeliveredMessage> deliveries;
        // Staged trace tuples, one buffer per phase so the replay can
        // run phase-major / shard-minor (= the serial record order):
        // round 1's Discard and Abort records, then round 2's ticks.
        std::vector<TraceEvent> discardTrace, abortTrace;
        std::vector<TraceEvent> injTrace, rtrTrace, rcvTrace;
        Auditor::ShardStage audit;
        std::uint64_t ticks = 0;  //!< Cumulative component ticks.
    };
    std::vector<ShardCtx> shardCtx_;

    /**
     * Apply one shard's staged deliveries in node order: latency
     * accumulators, ledger, explicit-send records.
     */
    void applyDeliveries(ShardCtx& ctx);

    // Registry handles (registered at construction; updates are
    // relaxed atomic stores, hot-path safe).
    std::atomic<std::uint64_t>* shardBarrierNanos_ = nullptr;
    std::vector<std::atomic<std::uint64_t>*> shardTickGauges_;

    // --- Telemetry (off the results path; see telemetry.hh) --------
    TickProfiler* prof_ = nullptr;
    /** True while the current tick is being clock-stamped. */
    bool profTimed_ = false;
    /** Start of the running profiler lap (ticking thread only). */
    std::uint64_t profLapAt_ = 0;
    // Registry handles, cached by attachProfiler (registration
    // allocates; updates are single atomic stores, hot-path safe).
    std::atomic<std::uint64_t>* gaugeInjAwake_ = nullptr;
    std::atomic<std::uint64_t>* gaugeRtrAwake_ = nullptr;
    std::atomic<std::uint64_t>* gaugeRcvAwake_ = nullptr;
    std::atomic<std::uint64_t>* gaugeWaveOcc_ = nullptr;
    std::atomic<std::uint64_t>* gaugeRngMessages_ = nullptr;

    Cycle now_ = 0;
    bool trafficEnabled_ = true;
    bool measuring_ = false;
    std::uint64_t measuredCreated_ = 0;

    Cycle lastActivity_ = 0;
    std::uint64_t lastActivityLevel_ = 0;

    // Dynamic faults (null / false unless configured or injected).
    std::unique_ptr<FaultSchedule> schedule_;
    bool dynamicFaults_ = false;
    bool forensicsDumped_ = false;
    DeliveryLedger* ledger_ = nullptr;
    std::vector<FaultEvent> dueEvents_;  //!< collectDue scratch.

    /** Explicit-send tracking. */
    std::map<MsgId, DeliveredMessage> manualDelivered_;
    std::set<MsgId> manualPending_;

    /**
     * The shard body of the current crew round (runShards() sets it
     * before the release, which publishes it to the crew).
     */
    void (Network::*shardBody_)(unsigned) = nullptr;
    /**
     * The thread-stable crew running each round's shard body
     * (shards_ > 1 only). Declared last, after everything its workers
     * touch, so it is destroyed (and its threads joined) first.
     */
    std::unique_ptr<ShardCrew> crew_;
};

} // namespace crnet

#endif // CRNET_CORE_NETWORK_HH
