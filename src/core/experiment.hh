/**
 * @file
 * Experiment harness: warmup / measure / drain phases over a Network,
 * producing one RunResult per configuration point.
 *
 * Methodology (standard interconnect practice, matching the paper's
 * simulation setup): the generator runs open loop; messages created
 * during the measurement window are tagged; after the window the
 * simulation keeps running (load still applied) until every tagged
 * message is delivered, the drain budget runs out (saturated), or the
 * deadlock watchdog fires.
 */

#ifndef CRNET_CORE_EXPERIMENT_HH
#define CRNET_CORE_EXPERIMENT_HH

#include <vector>

#include "src/core/annotations.hh"
#include "src/core/metrics.hh"
#include "src/core/network.hh"
#include "src/sim/config.hh"

namespace crnet {

/** Run one configuration to completion and summarize it. */
RunResult runExperiment(const SimConfig& cfg);

/**
 * Run a batch of independent configurations, fanned out across
 * `points.front().jobs` worker threads. Results are returned in input
 * order and are bit-identical to running each point sequentially —
 * every run owns its Network and seeded Rng — and so is the log: a
 * saturated-histogram warning is printed after the batch, in index
 * order. This is the engine under sweepLoads, runReplicated and
 * bench::sweep.
 */
std::vector<RunResult> runMany(const std::vector<SimConfig>& points);

/** Run the same configuration at several offered loads (runMany). */
std::vector<RunResult> sweepLoads(SimConfig cfg,
                                  const std::vector<double>& loads);

/** Outcome of a saturation-load bisection. */
struct SaturationResult
{
    double load = 0.0;       //!< Highest healthy load found (>= lo).
    /**
     * True when even `lo` was unhealthy: the network saturates
     * somewhere below the search range, and `load` (== lo) is only
     * the range floor, not a measured saturation point.
     */
    bool belowRange = false;
    std::uint32_t probes = 0;      //!< Experiments run.
    std::uint64_t flitEvents = 0;  //!< Work across all probes.
    double wallSeconds = 0.0;      //!< Wall-clock for the search.
    ProfileData profile;           //!< Merged probe profiles
                                   //!< (`profile=1`; else disabled).
};

/**
 * Binary-search the saturation load: the highest offered load (within
 * `tolerance`) at which the network still drains and average latency
 * stays below `latency_cap`. Check `belowRange` before trusting
 * `load`: it distinguishes "saturates exactly at lo" from "already
 * saturated below lo".
 */
SaturationResult findSaturation(SimConfig cfg, double lo, double hi,
                                double tolerance = 0.01,
                                double latency_cap = 2000.0);

/** Extract a RunResult from a finished network (shared summarizer). */
CRNET_RESULT_AFFECTING
RunResult summarize(const Network& net, bool drained, Cycle cycles);

/** Mean and spread over independent replications of one config. */
struct ReplicatedResult
{
    std::uint32_t replications = 0;
    double meanLatency = 0.0;
    double latencyCi95 = 0.0;     //!< Half-width, normal approx.
    double meanThroughput = 0.0;
    double throughputCi95 = 0.0;
    double meanKillsPerMessage = 0.0;
    bool allDrained = true;
    bool anyDeadlock = false;
    std::uint64_t flitEvents = 0;  //!< Work across all replications.
    double wallSeconds = 0.0;      //!< Wall-clock for the batch.
    ProfileData profile;           //!< Merged run profiles
                                   //!< (`profile=1`; else disabled).
};

/**
 * Run `replications` independent runs (seeds seed, seed+1, ...) in
 * parallel (cfg.jobs) and aggregate. The 95% intervals use the normal
 * approximation 1.96 * s / sqrt(n); with the default n=5 they are
 * indicative, not exact, and with n=1 they are reported as exactly 0
 * (a single sample has no spread to estimate).
 */
ReplicatedResult runReplicated(SimConfig cfg,
                               std::uint32_t replications = 5);

} // namespace crnet

#endif // CRNET_CORE_EXPERIMENT_HH
