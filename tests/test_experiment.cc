/**
 * @file
 * Tests for the experiment harness: phases, summaries, sweeps,
 * saturation search.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/core/experiment.hh"
#include "src/fault/campaign.hh"

namespace crnet {
namespace {

SimConfig
quickCfg()
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.injectionRate = 0.1;
    cfg.messageLength = 8;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 30000;
    cfg.seed = 3;
    return cfg;
}

TEST(Experiment, LowLoadRunDrainsWithSaneNumbers)
{
    const RunResult r = runExperiment(quickCfg());
    EXPECT_TRUE(r.drained);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.measuredMessages, 0u);
    EXPECT_EQ(r.deliveredMeasured, r.measuredMessages);
    EXPECT_GT(r.avgLatency, 0.0);
    EXPECT_GE(r.avgLatency, r.netLatency);
    EXPECT_NEAR(r.acceptedThroughput, r.offeredLoad, 0.03);
    EXPECT_GE(r.p95Latency, r.p50Latency);
    EXPECT_GE(r.p99Latency, r.p95Latency);
    EXPECT_EQ(r.orderViolations, 0u);
    EXPECT_EQ(r.duplicateDeliveries, 0u);
    EXPECT_EQ(r.corruptedDeliveries, 0u);
}

TEST(Experiment, LatencyIncreasesWithLoad)
{
    const auto results = sweepLoads(quickCfg(), {0.05, 0.3});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_LT(results[0].avgLatency, results[1].avgLatency);
}

TEST(Experiment, ResultsAreReproducibleAcrossRuns)
{
    const RunResult a = runExperiment(quickCfg());
    const RunResult b = runExperiment(quickCfg());
    EXPECT_EQ(a.measuredMessages, b.measuredMessages);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.totalKills, b.totalKills);
}

TEST(Experiment, DifferentSeedsDiffer)
{
    SimConfig cfg = quickCfg();
    const RunResult a = runExperiment(cfg);
    cfg.seed = 999;
    const RunResult b = runExperiment(cfg);
    EXPECT_NE(a.measuredMessages, b.measuredMessages);
}

TEST(Experiment, SaturationSearchFindsReasonablePoint)
{
    SimConfig cfg = quickCfg();
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.drainCycles = 8000;
    const SaturationResult res = findSaturation(cfg, 0.05, 1.0, 0.05,
                                                400.0);
    // A 4x4 CR torus saturates well above trickle load and cannot
    // exceed the injection bound.
    EXPECT_FALSE(res.belowRange);
    EXPECT_GT(res.load, 0.1);
    EXPECT_LT(res.load, 1.0);
}

TEST(Experiment, ReplicatedRunsAggregateAcrossSeeds)
{
    SimConfig cfg = quickCfg();
    const ReplicatedResult rep = runReplicated(cfg, 3);
    EXPECT_EQ(rep.replications, 3u);
    EXPECT_TRUE(rep.allDrained);
    EXPECT_FALSE(rep.anyDeadlock);
    EXPECT_GT(rep.meanLatency, 0.0);
    EXPECT_GT(rep.meanThroughput, 0.0);
    // Different seeds genuinely differ, so the CI is nonzero but far
    // smaller than the mean at this easy operating point.
    EXPECT_GT(rep.latencyCi95, 0.0);
    EXPECT_LT(rep.latencyCi95, rep.meanLatency);
}

TEST(Experiment, ReplicatedZeroIsFatal)
{
    EXPECT_DEATH(runReplicated(quickCfg(), 0), "replication");
}

TEST(Experiment, OverloadedRunReportsNotDrained)
{
    SimConfig cfg = quickCfg();
    cfg.injectionRate = 0.95;
    cfg.messageLength = 32;
    cfg.drainCycles = 2000;  // Deliberately too small to drain.
    const RunResult r = runExperiment(cfg);
    EXPECT_FALSE(r.drained);
}

// Regression: killsPerMessage once divided by messagesDelivered + 1
// (all phases, off by one) instead of the measured-delivered count it
// is defined over.
TEST(Experiment, KillsPerMessageUsesMeasuredDeliveredDenominator)
{
    SimConfig cfg = quickCfg();
    cfg.injectionRate = 0.45;  // Hot enough that kills happen.
    cfg.timeout = 4;
    const RunResult r = runExperiment(cfg);
    ASSERT_GT(r.totalKills, 0u);
    ASSERT_GT(r.deliveredMeasured, 0u);
    EXPECT_DOUBLE_EQ(r.killsPerMessage,
                     static_cast<double>(r.totalKills) /
                         static_cast<double>(r.deliveredMeasured));
}

// Regression: a single replication once reported a "CI" computed from
// a one-sample stddev. n=1 has no spread information: CI must be 0.
TEST(Experiment, SingleReplicationReportsZeroCi)
{
    const ReplicatedResult rep = runReplicated(quickCfg(), 1);
    EXPECT_EQ(rep.replications, 1u);
    EXPECT_GT(rep.meanLatency, 0.0);
    EXPECT_DOUBLE_EQ(rep.latencyCi95, 0.0);
    EXPECT_DOUBLE_EQ(rep.throughputCi95, 0.0);
}

TEST(Experiment, ReplicationsUseConsecutiveSeeds)
{
    SimConfig cfg = quickCfg();
    const ReplicatedResult rep = runReplicated(cfg, 4);
    EXPECT_GT(rep.latencyCi95, 0.0);

    // The aggregate must equal the hand-rolled mean over seeds
    // s, s+1, s+2, s+3 — pinning both the seeding scheme and the
    // deterministic in-order aggregation.
    double sum = 0.0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        SimConfig one = cfg;
        one.seed = cfg.seed + i;
        sum += runExperiment(one).avgLatency;
    }
    EXPECT_DOUBLE_EQ(rep.meanLatency, sum / 4.0);
}

TEST(Experiment, SweepPreservesInputOrder)
{
    // Deliberately unsorted loads: results must come back in input
    // order, not completion or sorted order.
    const std::vector<double> loads = {0.30, 0.05, 0.20};
    const auto results = sweepLoads(quickCfg(), loads);
    ASSERT_EQ(results.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].offeredLoad, loads[i]);
}

// Regression: the search returned `lo` when even `lo` failed the
// health predicate, indistinguishable from "saturates at lo".
TEST(Experiment, SaturationReportsBelowRangeWhenLoIsUnhealthy)
{
    SimConfig cfg = quickCfg();
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.drainCycles = 8000;
    // A latency cap below the zero-load latency makes every probe
    // unhealthy.
    const SaturationResult res = findSaturation(cfg, 0.05, 1.0, 0.05,
                                                1.0);
    EXPECT_TRUE(res.belowRange);
    EXPECT_DOUBLE_EQ(res.load, 0.05);
    EXPECT_GE(res.probes, 1u);
}

TEST(Experiment, SaturationStructMatchesScalarOnHealthyRange)
{
    SimConfig cfg = quickCfg();
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.drainCycles = 8000;
    const SaturationResult res = findSaturation(cfg, 0.05, 1.0, 0.05,
                                                400.0);
    EXPECT_FALSE(res.belowRange);
    EXPECT_GT(res.probes, 1u);
}

// Regression: the drain loop stepped fixed 256-cycle quanta and could
// overrun cfg.drainCycles by up to 255 cycles.
TEST(Experiment, DrainBudgetIsRespectedExactly)
{
    SimConfig cfg = quickCfg();
    cfg.injectionRate = 0.95;
    cfg.messageLength = 32;
    cfg.drainCycles = 1000;  // 3*256 + 232: exercises the final clamp.
    const RunResult r = runExperiment(cfg);
    ASSERT_FALSE(r.drained);  // Budget exhausted, so the clamp bound.
    EXPECT_EQ(r.cyclesRun,
              cfg.warmupCycles + cfg.measureCycles + cfg.drainCycles);
}

// --- Parallel engine: bit-identity with the sequential path ---------

void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    EXPECT_DOUBLE_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_DOUBLE_EQ(a.acceptedThroughput, b.acceptedThroughput);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_DOUBLE_EQ(a.netLatency, b.netLatency);
    EXPECT_DOUBLE_EQ(a.p50Latency, b.p50Latency);
    EXPECT_DOUBLE_EQ(a.p95Latency, b.p95Latency);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_DOUBLE_EQ(a.maxLatency, b.maxLatency);
    EXPECT_DOUBLE_EQ(a.latencyStddev, b.latencyStddev);
    EXPECT_DOUBLE_EQ(a.avgAttempts, b.avgAttempts);
    EXPECT_DOUBLE_EQ(a.killsPerMessage, b.killsPerMessage);
    EXPECT_DOUBLE_EQ(a.padOverhead, b.padOverhead);
    EXPECT_EQ(a.measuredMessages, b.measuredMessages);
    EXPECT_EQ(a.deliveredMeasured, b.deliveredMeasured);
    EXPECT_EQ(a.totalKills, b.totalKills);
    EXPECT_EQ(a.pathWideKills, b.pathWideKills);
    EXPECT_EQ(a.escapeAllocations, b.escapeAllocations);
    EXPECT_EQ(a.misrouteHops, b.misrouteHops);
    EXPECT_EQ(a.corruptedDeliveries, b.corruptedDeliveries);
    EXPECT_EQ(a.orderViolations, b.orderViolations);
    EXPECT_EQ(a.duplicateDeliveries, b.duplicateDeliveries);
    EXPECT_EQ(a.refusals, b.refusals);
    EXPECT_EQ(a.deadlocked, b.deadlocked);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.cyclesRun, b.cyclesRun);
    EXPECT_EQ(a.flitEvents, b.flitEvents);
    // wallSeconds is host timing, legitimately different.
}

TEST(Parallelism, SweepIsBitIdenticalToSequential)
{
    const std::vector<double> loads = {0.05, 0.15, 0.25, 0.35, 0.10,
                                       0.20};
    SimConfig seq = quickCfg();
    seq.jobs = 1;
    SimConfig par = quickCfg();
    par.jobs = 4;
    const auto rs = sweepLoads(seq, loads);
    const auto rp = sweepLoads(par, loads);
    ASSERT_EQ(rs.size(), rp.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE("load index " + std::to_string(i));
        expectIdenticalResults(rs[i], rp[i]);
    }
}

TEST(Parallelism, ReplicationIsBitIdenticalToSequential)
{
    SimConfig seq = quickCfg();
    seq.jobs = 1;
    SimConfig par = quickCfg();
    par.jobs = 4;
    const ReplicatedResult rs = runReplicated(seq, 4);
    const ReplicatedResult rp = runReplicated(par, 4);
    EXPECT_DOUBLE_EQ(rs.meanLatency, rp.meanLatency);
    EXPECT_DOUBLE_EQ(rs.latencyCi95, rp.latencyCi95);
    EXPECT_DOUBLE_EQ(rs.meanThroughput, rp.meanThroughput);
    EXPECT_DOUBLE_EQ(rs.throughputCi95, rp.throughputCi95);
    EXPECT_DOUBLE_EQ(rs.meanKillsPerMessage, rp.meanKillsPerMessage);
    EXPECT_EQ(rs.allDrained, rp.allDrained);
    EXPECT_EQ(rs.anyDeadlock, rp.anyDeadlock);
    EXPECT_EQ(rs.flitEvents, rp.flitEvents);
}

TEST(Parallelism, CampaignIsBitIdenticalToSequential)
{
    CampaignConfig cc;
    cc.base = quickCfg();
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.timeout = 32;
    cc.base.maxRetries = 0;
    cc.base.misrouteAfterRetries = 1;
    cc.base.misrouteBudget = 4;
    cc.base.dynamicLinkKills = 1;
    cc.trials = 6;

    cc.base.jobs = 1;
    std::vector<TrialOutcome> seq;
    const CampaignSummary ss = runCampaign(cc, &seq);

    cc.base.jobs = 4;
    std::vector<TrialOutcome> par;
    const CampaignSummary sp = runCampaign(cc, &par);

    EXPECT_EQ(ss.accountedTrials, sp.accountedTrials);
    EXPECT_EQ(ss.deadlockedTrials, sp.deadlockedTrials);
    EXPECT_EQ(ss.accepted, sp.accepted);
    EXPECT_EQ(ss.delivered, sp.delivered);
    EXPECT_EQ(ss.refused, sp.refused);
    EXPECT_EQ(ss.pending, sp.pending);
    EXPECT_EQ(ss.duplicates, sp.duplicates);
    EXPECT_EQ(ss.flitEvents, sp.flitEvents);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_EQ(seq[i].trial, par[i].trial);
        EXPECT_EQ(seq[i].seed, par[i].seed);
        EXPECT_EQ(seq[i].accepted, par[i].accepted);
        EXPECT_EQ(seq[i].delivered, par[i].delivered);
        EXPECT_EQ(seq[i].cyclesRun, par[i].cyclesRun);
        EXPECT_EQ(seq[i].flitEvents, par[i].flitEvents);
    }
}

TEST(Parallelism, RunManyHandlesEmptyInput)
{
    EXPECT_TRUE(runMany({}).empty());
}

TEST(Parallelism, SaturationWarningNamesTheLowestIndexRun)
{
    // A message killed once waits out a 33,000-cycle static gap, past
    // the latency histogram's 32,768-cycle top bin, so both runs
    // saturate it. Run 1 (2x2) finishes long before run 0 (4x4), yet
    // at jobs=2 the warning must name run 0, as it does at jobs=1.
    SimConfig cfg;
    cfg.timeout = 2;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 33000;
    cfg.messageLength = 8;
    cfg.injectionRate = 0.3;
    cfg.drainCycles = 400000;
    cfg.deadlockThreshold = 1000000;
    cfg.jobs = 2;
    std::vector<SimConfig> points(2, cfg);
    points[0].radixK = 4;
    points[0].warmupCycles = 100;
    points[0].measureCycles = 200;
    points[1].radixK = 2;
    points[1].warmupCycles = 0;
    points[1].measureCycles = 50;
    // The warning fires once per process: run the batch in a fresh one.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            const std::vector<RunResult> runs = runMany(points);
            const bool both = runs[0].latencyOverflow > 0 &&
                              runs[1].latencyOverflow > 0;
            std::exit(both ? 0 : 1);
        },
        ::testing::ExitedWithCode(0),
        "\\[run 0\\] latency histogram saturated");
}

} // namespace
} // namespace crnet
