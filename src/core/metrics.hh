/**
 * @file
 * Central statistics block shared by injectors, receivers and routers
 * of one network, plus the per-run result record the experiment
 * harness reports.
 */

#ifndef CRNET_CORE_METRICS_HH
#define CRNET_CORE_METRICS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/timeseries.hh"
#include "src/router/router.hh"
#include "src/sim/stats.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/types.hh"

namespace crnet {

/** Everything the simulation counts, in one place. */
struct NetworkStats
{
    RouterStats router;

    // --- Source side ------------------------------------------------
    Counter messagesGenerated;
    Counter messagesMeasured;
    Counter sourceQueueDrops;     //!< Generator arrivals that found a
                                  //!< full source queue.
    Counter flitsInjected;
    Counter padFlitsInjected;
    Counter sourceKills;          //!< Source-timeout kills.
    Counter abortedByBkill;       //!< Worms torn down from within.
    Counter messagesCommitted;    //!< Tails injected (CR commit).
    Counter messagesFailed;       //!< Gave up after max retries.
    Counter measuredFailed;       //!< ... of which were measured.

    // --- Sink side -----------------------------------------------------
    Counter messagesDelivered;
    Counter measuredDelivered;
    Counter corruptedDeliveries;  //!< Delivered with bad payload
                                  //!< (must stay 0 under FCR).
    Counter orderViolations;      //!< pairSeq gaps at delivery.
    Counter duplicateDeliveries;  //!< pairSeq repeats at delivery.
    Counter refusals;             //!< FCR receiver error refusals.
    Counter staleAttemptFlits;    //!< Consumed flits of superseded
                                  //!< attempts (kill/retry races).
    Counter flitsConsumed;
    Counter padFlitsConsumed;
    Counter measuredPayloadFlits; //!< Payload flits of measured msgs.

    // --- Dynamic faults ------------------------------------------------
    Counter faultEventsApplied;   //!< FaultSchedule events fired.
    Counter flitsLostOnDeadLinks; //!< Data flits absorbed mid-wire.
    Counter killsAbsorbedAtDeadLinks;  //!< Forward kills absorbed (the
                                       //!< break-point kill continues
                                       //!< the teardown downstream).
    Counter controlAbsorbedAtDeadLinks; //!< Credits/bkills absorbed.
    Counter receiverTimeouts;     //!< Starved assemblies resolved by
                                  //!< the receiver-side timeout.
    Counter assembliesFinalized;  //!< Kill-cut messages whose payload
                                  //!< was already complete: delivered.
    Counter assembliesDiscarded;  //!< Kill-cut messages dropped
                                  //!< (incomplete or corrupt payload).
    Counter retryDuplicatesSuppressed;  //!< Retransmissions arriving
                                        //!< after a finalize.

    // --- Measured-message latency -------------------------------------
    Accumulator totalLatency;     //!< Creation -> tail delivered.
    Accumulator netLatency;       //!< Last head injection -> delivered.
    Accumulator attempts;         //!< Attempts per delivered message.
    Accumulator padOverhead;      //!< Pad flits / wire flits per msg.
    Histogram latencyHist{8.0, 4096};  //!< Total latency, 8-cycle bins.

    /**
     * Snapshot field list (snapshot.hh): the counters in
     * kRouterCounters then kNetworkCounters order, the accumulators,
     * the latency histogram.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);
};

/**
 * Every Counter of the stats block, in the snapshot's order, as
 * member-pointer tables: serialization, the per-shard fold and the
 * restore-time reset of the shard blocks all walk them. Accumulators
 * and the histogram are deliberately absent: shard blocks never
 * receive order-sensitive adds (see Network::shardStats_).
 */
inline constexpr std::array<Counter RouterStats::*, 13> kRouterCounters = {
    &RouterStats::flitsForwarded,
    &RouterStats::headersRouted,
    &RouterStats::escapeAllocations,
    &RouterStats::misrouteHops,
    &RouterStats::killsForwarded,
    &RouterStats::killsAnnihilated,
    &RouterStats::pathWideKills,
    &RouterStats::bkillHops,
    &RouterStats::flitsPurged,
    &RouterStats::stragglersDropped,
    &RouterStats::staleKills,
    &RouterStats::lateCreditsDropped,
    &RouterStats::linkDeathTeardowns,
};

inline constexpr std::array<Counter NetworkStats::*, 28> kNetworkCounters = {
    &NetworkStats::messagesGenerated,
    &NetworkStats::messagesMeasured,
    &NetworkStats::sourceQueueDrops,
    &NetworkStats::flitsInjected,
    &NetworkStats::padFlitsInjected,
    &NetworkStats::sourceKills,
    &NetworkStats::abortedByBkill,
    &NetworkStats::messagesCommitted,
    &NetworkStats::messagesFailed,
    &NetworkStats::measuredFailed,
    &NetworkStats::messagesDelivered,
    &NetworkStats::measuredDelivered,
    &NetworkStats::corruptedDeliveries,
    &NetworkStats::orderViolations,
    &NetworkStats::duplicateDeliveries,
    &NetworkStats::refusals,
    &NetworkStats::staleAttemptFlits,
    &NetworkStats::flitsConsumed,
    &NetworkStats::padFlitsConsumed,
    &NetworkStats::measuredPayloadFlits,
    &NetworkStats::faultEventsApplied,
    &NetworkStats::flitsLostOnDeadLinks,
    &NetworkStats::killsAbsorbedAtDeadLinks,
    &NetworkStats::controlAbsorbedAtDeadLinks,
    &NetworkStats::receiverTimeouts,
    &NetworkStats::assembliesFinalized,
    &NetworkStats::assembliesDiscarded,
    &NetworkStats::retryDuplicatesSuppressed,
};

template <typename Self, typename Io>
void
NetworkStats::serialize(Self& self, Io& io)
{
    for (const auto field : kRouterCounters)
        Counter::serialize(self.router.*field, io);
    for (const auto field : kNetworkCounters)
        Counter::serialize(self.*field, io);
    Accumulator::serialize(self.totalLatency, io);
    Accumulator::serialize(self.netLatency, io);
    Accumulator::serialize(self.attempts, io);
    Accumulator::serialize(self.padOverhead, io);
    Histogram::serialize(self.latencyHist, io);
}

/** Aggregate outcome of one simulated configuration. */
struct RunResult
{
    double offeredLoad = 0.0;      //!< Flits/node/cycle offered.
    double acceptedThroughput = 0.0;  //!< Measured payload
                                      //!< flits/node/cycle delivered.
    double avgLatency = 0.0;
    double netLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double maxLatency = 0.0;
    double latencyStddev = 0.0;
    double avgAttempts = 0.0;
    double killsPerMessage = 0.0;
    double padOverhead = 0.0;      //!< Mean pad fraction of the wire.
    std::uint64_t measuredMessages = 0;
    std::uint64_t deliveredMeasured = 0;
    std::uint64_t totalKills = 0;
    std::uint64_t pathWideKills = 0;
    std::uint64_t escapeAllocations = 0;  //!< Duato PDS proxy.
    std::uint64_t misrouteHops = 0;
    std::uint64_t corruptedDeliveries = 0;
    std::uint64_t orderViolations = 0;
    std::uint64_t duplicateDeliveries = 0;
    std::uint64_t refusals = 0;
    bool deadlocked = false;
    bool drained = false;          //!< All measured msgs delivered.
    Cycle cyclesRun = 0;
    /**
     * Samples that fell past the latency histogram's last bin
     * (latencyHist caps at binWidth * numBins = 32768 cycles). When
     * non-zero, p50/p95/p99 are clamped to the histogram range, and
     * runExperiment and runMany warn once per process, naming the
     * lowest-index such run of a batch.
     */
    std::uint64_t latencyOverflow = 0;

    // --- Telemetry (populated when the matching config keys are set) --
    /** Interval samples (`sample_interval` > 0); else empty. */
    std::vector<TimeSeriesSample> timeseries;
    /** Per-node heat counters (`heatmap=1`); else null. */
    std::shared_ptr<const HeatmapData> heatmap;

    // --- Engine observability (not simulation results) ----------------
    /**
     * Data-flit events processed over the whole run: injections +
     * switch traversals + consumptions. The work metric behind the
     * flit-events/sec throughput figure in bench timing footers.
     */
    std::uint64_t flitEvents = 0;
    double wallSeconds = 0.0;      //!< Host wall-clock for this run.
    /**
     * Self-profiler output (`profile=1`): wall time attributed to
     * warmup/measure/drain and tick sub-phases. Like wallSeconds,
     * excluded from every byte-identity comparison.
     */
    ProfileData profile;
};

} // namespace crnet

#endif // CRNET_CORE_METRICS_HH
