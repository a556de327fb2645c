/**
 * @file
 * Simulation configuration: one plain struct that fully describes a
 * network experiment, plus string-based overrides for CLI tools.
 *
 * Every example and benchmark builds a SimConfig, optionally applies
 * `key=value` overrides from the command line, validates it, and hands
 * it to Network / ExperimentRunner. SimConfig::fields() lists every
 * key; each enum's names are in its table below.
 */

#ifndef CRNET_SIM_CONFIG_HH
#define CRNET_SIM_CONFIG_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/types.hh"

namespace crnet {

/** Network topology family. */
enum class TopologyKind { Torus, Mesh };

/** Routing algorithm selection. */
enum class RoutingKind {
    DimensionOrder,    //!< Deterministic DOR; dateline VCs on tori.
    MinimalAdaptive,   //!< Fully adaptive minimal (CR's routing relation).
    Duato,             //!< Adaptive VCs + DOR escape VCs (baseline, PDS).
    WestFirst,         //!< Turn-model routing (mesh only).
    NegativeFirst,     //!< Turn-model routing (mesh only).
    PlanarAdaptive     //!< Chien/Kim planar-adaptive (2D mesh, 3 VCs).
};

/** End-to-end protocol run by the network interfaces. */
enum class ProtocolKind {
    None,  //!< Plain wormhole; relies on the routing algorithm alone.
    Cr,    //!< Compressionless Routing: pad + timeout + kill + retry.
    Fcr    //!< Fault-tolerant CR: round-trip pad + checksums + kills.
};

/** How a potential deadlock situation is detected. */
enum class TimeoutScheme {
    SourceStall,  //!< Kill after `timeout` consecutive stalled cycles.
    SourceImin,   //!< Kill when injected flits fall behind I_min(t).
    PathWide,     //!< Kill when any router on the path stalls too long
                  //!< (the paper's inferior alternative, Sec. 7).
    DropAtBlock   //!< BBN-Butterfly/abort-and-retry style (the
                  //!< related work of Sec. 8): a router drops a worm
                  //!< whose *header* has been blocked `timeout`
                  //!< cycles, rejecting back to the source.
};

/** Retransmission gap policy after a kill. */
enum class BackoffScheme {
    Static,      //!< Fixed gap of `backoffGap` cycles.
    Exponential  //!< Binary exponential backoff (dynamic scheme).
};

/**
 * Component-scheduling strategy of the cycle loop (see
 * docs/PERFORMANCE.md). Both produce bit-identical results; `sweep`
 * exists as the A/B reference for the equivalence suite.
 */
enum class SchedulerKind {
    Sweep,   //!< Tick every injector/router/receiver every cycle.
    Active   //!< Tick only components with work or a due deadline.
};

/** Synthetic traffic spatial patterns. */
enum class TrafficPattern {
    Uniform,
    BitComplement,
    Transpose,
    BitReversal,
    Hotspot,
    Neighbor,
    Tornado  //!< k/2-1 offset along dimension 0: the classic
             //!< adversarial torus pattern for deterministic routing.
};

/**
 * Each config enum's `key=value` spellings, indexed by value:
 * toString() prints them and SimConfig::set() parses them, and `what`
 * names the kind in set()'s "unknown <what> '...'" fatal.
 */
struct EnumNames
{
    const char* what;
    std::span<const char* const> names;
};

inline constexpr const char* kTopologyNames[] = {"torus", "mesh"};
inline constexpr const char* kRoutingNames[] = {
    "dor",        "minimal_adaptive", "duato",
    "west_first", "negative_first",   "planar_adaptive"};
inline constexpr const char* kProtocolNames[] = {"none", "cr", "fcr"};
inline constexpr const char* kTimeoutSchemeNames[] = {
    "source_stall", "source_imin", "path_wide", "drop_at_block"};
inline constexpr const char* kBackoffNames[] = {"static", "exponential"};
inline constexpr const char* kSchedulerNames[] = {"sweep", "active"};
inline constexpr const char* kPatternNames[] = {
    "uniform", "bit_complement", "transpose", "bit_reversal",
    "hotspot", "neighbor",       "tornado"};

constexpr EnumNames
enumNames(TopologyKind) { return {"topology", kTopologyNames}; }
constexpr EnumNames
enumNames(RoutingKind) { return {"routing", kRoutingNames}; }
constexpr EnumNames
enumNames(ProtocolKind) { return {"protocol", kProtocolNames}; }
constexpr EnumNames
enumNames(TimeoutScheme)
{
    return {"timeout scheme", kTimeoutSchemeNames};
}
constexpr EnumNames
enumNames(BackoffScheme) { return {"backoff scheme", kBackoffNames}; }
constexpr EnumNames
enumNames(SchedulerKind) { return {"scheduler", kSchedulerNames}; }
constexpr EnumNames
enumNames(TrafficPattern) { return {"traffic pattern", kPatternNames}; }

/** Whether configFingerprint covers a SimConfig::fields() row. */
enum class Fp : bool { Skip, Cover };

/**
 * Most ports a router may have on either side: 2*dimensionsN network
 * ports plus the injection (input side) or ejection (output side)
 * channels. The switch arbiter keeps its requests in 64-bit masks.
 */
inline constexpr std::uint32_t kMaxRouterPorts = 64;

/** Complete description of one simulated network + workload. */
struct SimConfig
{
    // --- Topology -------------------------------------------------
    TopologyKind topology = TopologyKind::Torus;
    std::uint32_t radixK = 16;      //!< Nodes per dimension.
    std::uint32_t dimensionsN = 2;  //!< Number of dimensions.

    // --- Router ---------------------------------------------------
    std::uint32_t numVcs = 1;        //!< Virtual channels per physical.
    std::uint32_t bufferDepth = 2;   //!< Flits of buffering per VC.
    std::uint32_t injectionChannels = 1;  //!< Parallel source channels.
    std::uint32_t ejectionChannels = 1;   //!< Parallel sink channels.
    /**
     * Cycles a flit (and, symmetrically, a returning credit or kill
     * hop) spends on a router-to-router channel — the paper's "deep
     * networks" knob (long physical wires). NIC channels stay at 1.
     */
    std::uint32_t channelLatency = 1;

    // --- Routing / protocol ----------------------------------------
    RoutingKind routing = RoutingKind::MinimalAdaptive;
    ProtocolKind protocol = ProtocolKind::Cr;
    TimeoutScheme timeoutScheme = TimeoutScheme::SourceStall;
    Cycle timeout = 32;              //!< Stall cycles before a kill.
    BackoffScheme backoff = BackoffScheme::Exponential;
    Cycle backoffGap = 16;           //!< Gap for Static; base for Exp.
    Cycle backoffCap = 1024;         //!< Max exponential gap.
    std::uint32_t misrouteAfterRetries = 0;  //!< 0 = never misroute.
    std::uint32_t misrouteBudget = 4;  //!< Non-minimal hops per attempt.
    std::uint32_t maxRetries = 0;    //!< Drop after this many kills;
                                     //!< 0 = retry forever.
    /**
     * Hold back a message while an earlier message to the same
     * destination is unfinished (preserves per-(src,dst) order even
     * with several worms in flight). Disable to measure what the
     * ordering guarantee costs — receivers then count violations.
     */
    bool enforceDestOrder = true;
    std::uint32_t padSlack = 2;      //!< Extra pad flits beyond depth.

    // --- Traffic ----------------------------------------------------
    TrafficPattern pattern = TrafficPattern::Uniform;
    double injectionRate = 0.1;      //!< Flits/node/cycle offered.
    std::uint32_t messageLength = 16;   //!< Payload flits (incl. head).
    std::uint32_t messageLengthB = 0;   //!< Second mode (bimodal); 0=off.
    double bimodalFracB = 0.0;       //!< Fraction of B-length messages.
    double hotspotFraction = 0.2;    //!< Extra traffic share to hotspot.
    std::uint32_t maxPendingPerNode = 64;  //!< Source queue bound.

    // --- Faults -----------------------------------------------------
    double transientFaultRate = 0.0;  //!< P(corrupt) per flit-hop.
    std::uint32_t permanentLinkFaults = 0;  //!< Dead links at t=0.

    // --- Dynamic faults (FaultSchedule; fired mid-simulation) -------
    std::uint32_t dynamicLinkKills = 0;  //!< Random bidirectional
                                         //!< link deaths.
    std::uint32_t dynamicDirectedKills = 0;  //!< Random one-way
                                             //!< link deaths.
    std::uint32_t dynamicRouterKills = 0;  //!< Random fail-stop
                                           //!< routers.
    /**
     * Window the stochastic fault cycles are drawn from. end = 0
     * means "the measurement phase": [warmup, warmup + measure).
     */
    Cycle faultWindowStart = 0;
    Cycle faultWindowEnd = 0;
    Cycle linkRepairAfter = 0;  //!< Revive each killed link this many
                                //!< cycles after its death; 0 = never.
    Cycle burstStart = 0;       //!< Burst window start (0 = window
                                //!< start).
    Cycle burstLen = 0;         //!< Burst window length; 0 = no burst.
    double burstRate = 0.0;     //!< P(corrupt) during the burst.
    std::string faultScenario;  //!< Scenario file path ("" = none).

    /** True when any dynamic-fault machinery must be armed. */
    bool hasDynamicFaults() const;

    // --- Observability (see docs/OBSERVABILITY.md) ------------------
    /**
     * Worm-event trace output prefix; the tracer writes
     * `<prefix>.jsonl` and `<prefix>.json` (Chrome trace-event
     * format). "" = disabled. Batch engines suffix `_run<i>` per run.
     */
    std::string traceFile;
    /**
     * Trace watch list: comma-separated message ids and/or
     * `<src>-<dst>` node pairs; "" records every event.
     */
    std::string watchSpec;
    /**
     * Cycles between time-series samples (throughput, latency, kills,
     * fault events, in-flight worms). 0 = no time series.
     */
    Cycle sampleInterval = 0;
    /**
     * Collect per-router/per-channel heat counters (occupancy
     * integral, blocked cycles, forwarded flits) into
     * RunResult::heatmap.
     */
    bool heatmapEnabled = false;
    /**
     * Live status file (src/sim/telemetry.hh): the campaign / sweep
     * engines atomically rewrite this JSON every `statusEverySeconds`
     * wall-seconds with progress, ETA and recent fault events;
     * tools/crnet_top.py tails it. "" = disabled. Byte-identical
     * on/off.
     */
    std::string statusFile;
    /** Min wall-seconds between status rewrites (0 = every update). */
    double statusEverySeconds = 2.0;
    /**
     * Attach the per-run self-profiler (src/sim/telemetry.hh):
     * attributes wall time to warmup/measure/drain and tick sub-phases
     * into RunResult::profile / CampaignSummary::profile and the
     * `profile:` bench footer. Off the results path; <2% overhead.
     */
    bool profileEnabled = false;

    // --- Experiment ---------------------------------------------------
    /**
     * Cycle-loop scheduler. Active (the default) skips idle
     * components and is bit-identical to Sweep at every setting; the
     * `sched=sweep` override ticks every component every cycle, for
     * A/B identity testing and perf comparison.
     */
    SchedulerKind sched = SchedulerKind::Active;
    std::uint64_t seed = 1;
    /**
     * Worker threads for the batch engines (`runMany`/`sweepLoads`,
     * `runReplicated`, `runCampaign`), in [1, 1024]; 1 runs
     * sequentially. Results are bit-identical at every setting: each
     * run owns its Network and seeded Rng, and collection is
     * index-ordered (see src/sim/parallel.hh).
     */
    std::uint32_t jobs = 1;
    /**
     * Intra-run network shards: the node array of *one* Network is
     * split into this many ranges, each ticked every cycle by its own
     * ShardCrew thread (the ticking thread runs range 0), with
     * cross-range flit/credit traffic exchanged deterministically
     * through the staged delivery waves (the >= 1-cycle channel
     * latency is the synchronization slack window; see
     * docs/PERFORMANCE.md), in [1, 1024]; 1 is unsharded. Results
     * are bit-identical at every setting, so snapshots restore across
     * shard counts.
     */
    std::uint32_t shards = 1;
    Cycle warmupCycles = 2000;
    Cycle measureCycles = 10000;
    Cycle drainCycles = 100000;       //!< Cap on the drain phase.
    Cycle deadlockThreshold = 20000;  //!< Network-idle watchdog.
    /**
     * Cycles between invariant-audit sweeps (flit conservation and
     * credit-ledger checks) when the CRNET_AUDIT build option is on.
     * Per-flit framing checks always run every event. 1 = sweep every
     * cycle (tests); larger values amortize the sweep cost.
     */
    Cycle auditInterval = 64;

    /** Total nodes in the configured topology. */
    std::uint64_t numNodes() const;

    /**
     * Validate the configuration; calls fatal() with a diagnostic on
     * any unusable combination (e.g. turn-model routing on a torus,
     * CR protocol with a non-adaptive routing relation is allowed but
     * protocol None with adaptive routing on a torus is flagged by
     * the deadlock watchdog at run time, not here).
     */
    void validate() const;

    /**
     * The field list: `row(key, field, fp)` once per field, in
     * declaration order, giving its `key=value` key and whether
     * configFingerprint covers it (each skipped row says why). set()
     * parses a key by its field's type, and configFingerprint() writes
     * the covered fields in order.
     */
    template <typename Self, typename Row>
    static void fields(Self& self, Row&& row);

    /**
     * Apply a `key=value` override (CLI syntax), parsed by the field's
     * type: an integer must fit the field, a number must be finite, an
     * enum must be one of its names. Unknown keys and bad values are
     * fatal. Returns *this for chaining.
     */
    SimConfig& set(const std::string& key, const std::string& value);

    /** Apply argv-style overrides (each element `key=value`). */
    SimConfig& applyArgs(int argc, char** argv);

    /** Human-readable one-line summary. */
    std::string summary() const;
};

template <typename Self, typename Row>
void
SimConfig::fields(Self& c, Row&& row)
{
    row("topology", c.topology, Fp::Cover);
    row("k", c.radixK, Fp::Cover);
    row("n", c.dimensionsN, Fp::Cover);
    row("vcs", c.numVcs, Fp::Cover);
    row("buffer_depth", c.bufferDepth, Fp::Cover);
    row("injection_channels", c.injectionChannels, Fp::Cover);
    row("ejection_channels", c.ejectionChannels, Fp::Cover);
    row("channel_latency", c.channelLatency, Fp::Cover);
    row("routing", c.routing, Fp::Cover);
    row("protocol", c.protocol, Fp::Cover);
    row("timeout_scheme", c.timeoutScheme, Fp::Cover);
    row("timeout", c.timeout, Fp::Cover);
    row("backoff", c.backoff, Fp::Cover);
    row("backoff_gap", c.backoffGap, Fp::Cover);
    row("backoff_cap", c.backoffCap, Fp::Cover);
    row("misroute_after_retries", c.misrouteAfterRetries, Fp::Cover);
    row("misroute_budget", c.misrouteBudget, Fp::Cover);
    row("max_retries", c.maxRetries, Fp::Cover);
    row("enforce_dest_order", c.enforceDestOrder, Fp::Cover);
    row("pad_slack", c.padSlack, Fp::Cover);
    row("pattern", c.pattern, Fp::Cover);
    row("load", c.injectionRate, Fp::Cover);
    row("msg_len", c.messageLength, Fp::Cover);
    row("msg_len_b", c.messageLengthB, Fp::Cover);
    row("bimodal_frac_b", c.bimodalFracB, Fp::Cover);
    row("hotspot_fraction", c.hotspotFraction, Fp::Cover);
    row("max_pending", c.maxPendingPerNode, Fp::Cover);
    row("fault_rate", c.transientFaultRate, Fp::Cover);
    row("permanent_faults", c.permanentLinkFaults, Fp::Cover);
    row("dyn_link_kills", c.dynamicLinkKills, Fp::Cover);
    row("dyn_directed_kills", c.dynamicDirectedKills, Fp::Cover);
    row("dyn_router_kills", c.dynamicRouterKills, Fp::Cover);
    row("fault_window_start", c.faultWindowStart, Fp::Cover);
    row("fault_window_end", c.faultWindowEnd, Fp::Cover);
    row("link_repair_after", c.linkRepairAfter, Fp::Cover);
    row("burst_start", c.burstStart, Fp::Cover);
    row("burst_len", c.burstLen, Fp::Cover);
    row("burst_rate", c.burstRate, Fp::Cover);
    row("fault_scenario", c.faultScenario, Fp::Cover);
    // An observability sidecar: a restore may attach another path.
    row("trace", c.traceFile, Fp::Skip);
    // Covered: the watch list shapes the tracer state a snapshot
    // carries.
    row("watch", c.watchSpec, Fp::Cover);
    row("sample_interval", c.sampleInterval, Fp::Cover);
    row("heatmap", c.heatmapEnabled, Fp::Cover);
    // Telemetry on and off are byte-identical (tests/test_telemetry.cc),
    // so a checkpoint taken with profiling on restores into an
    // unprofiled run, and a journal resumes with or without a status
    // file.
    row("status", c.statusFile, Fp::Skip);
    row("status_interval", c.statusEverySeconds, Fp::Skip);
    row("profile", c.profileEnabled, Fp::Skip);
    // The schedulers are proven bit-identical across a restore, so a
    // snapshot taken under sched=sweep restores under sched=active and
    // vice versa (tests/test_snapshot.cc).
    row("sched", c.sched, Fp::Skip);
    row("seed", c.seed, Fp::Cover);
    // Batch parallelism never touches a run's state.
    row("jobs", c.jobs, Fp::Skip);
    // Shard counts are bit-identical, and per-shard counter blocks are
    // folded into the master stats before serialization, so a snapshot
    // taken at shards=4 restores at shards=1 and vice versa
    // (tests/test_shard.cc).
    row("shards", c.shards, Fp::Skip);
    row("warmup", c.warmupCycles, Fp::Cover);
    row("measure", c.measureCycles, Fp::Cover);
    row("drain", c.drainCycles, Fp::Cover);
    row("deadlock_threshold", c.deadlockThreshold, Fp::Cover);
    row("audit_interval", c.auditInterval, Fp::Cover);
}

/** An enum's name from its table (panics on a value it lacks). */
std::string toString(TopologyKind k);
std::string toString(RoutingKind k);
std::string toString(ProtocolKind k);
std::string toString(TimeoutScheme k);
std::string toString(BackoffScheme k);
std::string toString(TrafficPattern k);
std::string toString(SchedulerKind k);

/**
 * `value`, the argument of key `key`, as a decimal integer in
 * [lo, hi]. Fatal ("expected integer") on anything else: a sign, a
 * blank, or a number out of range.
 */
std::uint64_t
parseInteger(const std::string& key, const std::string& value,
             std::uint64_t lo = 0,
             std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/**
 * argv[1..argc) as (key, value) pairs, each argument split at its
 * first '='; fatal on an argument without one. Every command-line
 * entry (SimConfig::applyArgs, configFromArgs,
 * CampaignConfig::applyArgs) splits through it.
 */
std::vector<std::pair<std::string, std::string>>
splitArgs(int argc, char** argv);

} // namespace crnet

#endif // CRNET_SIM_CONFIG_HH
