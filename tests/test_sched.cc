/**
 * @file
 * Scheduler-equivalence suite: SchedulerKind::Active must be
 * bit-identical to SchedulerKind::Sweep on every observable output —
 * run summaries, time series, heatmaps, trace files, campaign
 * aggregates — across protocols, timeout schemes, channel depths and
 * fault regimes. Any divergence means the active scheduler under-woke
 * a component (see docs/PERFORMANCE.md for the wakeup rules).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/trace.hh"

namespace crnet {
namespace {

SimConfig
baseCfg()
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.timeout = 8;
    cfg.injectionRate = 0.1;
    cfg.messageLength = 8;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 30000;
    cfg.seed = 11;
    return cfg;
}

/** Field-by-field RunResult comparison (excluding wall clock). */
void
expectSameResult(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.acceptedThroughput, b.acceptedThroughput);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.netLatency, b.netLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.latencyStddev, b.latencyStddev);
    EXPECT_EQ(a.avgAttempts, b.avgAttempts);
    EXPECT_EQ(a.killsPerMessage, b.killsPerMessage);
    EXPECT_EQ(a.padOverhead, b.padOverhead);
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
    EXPECT_EQ(a.latencyOverflow, b.latencyOverflow);
    EXPECT_EQ(a.flitEvents, b.flitEvents);
    EXPECT_EQ(a.timeseries, b.timeseries);
    ASSERT_EQ(a.heatmap != nullptr, b.heatmap != nullptr);
    if (a.heatmap != nullptr) {
        EXPECT_EQ(a.heatmap->occupancyIntegral,
                  b.heatmap->occupancyIntegral);
        EXPECT_EQ(a.heatmap->blockedCycles, b.heatmap->blockedCycles);
        EXPECT_EQ(a.heatmap->forwarded, b.heatmap->forwarded);
    }
}

/** Run `cfg` under both schedulers; require identical results. */
void
expectSchedulersAgree(SimConfig cfg)
{
    cfg.sched = SchedulerKind::Active;
    const RunResult active = runExperiment(cfg);
    cfg.sched = SchedulerKind::Sweep;
    const RunResult sweep = runExperiment(cfg);
    expectSameResult(active, sweep);
    // A run that moved no flits proves nothing.
    EXPECT_GT(active.flitEvents, 0u);
}

TEST(Sched, ActiveMatchesSweepCrLowLoad)
{
    SimConfig cfg = baseCfg();
    cfg.injectionRate = 0.05;
    cfg.sampleInterval = 100;
    cfg.heatmapEnabled = true;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepCrMidLoad)
{
    SimConfig cfg = baseCfg();
    cfg.injectionRate = 0.25;
    cfg.sampleInterval = 100;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepFcrWithTransientFaults)
{
    SimConfig cfg = baseCfg();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.transientFaultRate = 2e-4;
    cfg.injectionRate = 0.15;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepPathWideScheme)
{
    SimConfig cfg = baseCfg();
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.timeout = 16;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepIminScheme)
{
    SimConfig cfg = baseCfg();
    cfg.timeoutScheme = TimeoutScheme::SourceImin;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepDeepChannels)
{
    // channelLatency=4 needs 6 buckets, rounded up to 8: exercises
    // the power-of-two wave indexing on a non-trivial depth.
    SimConfig cfg = baseCfg();
    cfg.channelLatency = 4;
    cfg.timeout = 32;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepDynamicFaults)
{
    SimConfig cfg = baseCfg();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.dynamicLinkKills = 2;
    cfg.linkRepairAfter = 800;
    cfg.maxRetries = 40;
    cfg.injectionRate = 0.08;
    cfg.sampleInterval = 200;
    expectSchedulersAgree(cfg);
}

TEST(Sched, ActiveMatchesSweepCampaign)
{
    CampaignConfig cc;
    cc.base = baseCfg();
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.dynamicLinkKills = 1;
    cc.base.maxRetries = 40;
    cc.base.injectionRate = 0.08;
    cc.trials = 3;
    cc.seedBase = 7;

    cc.base.sched = SchedulerKind::Active;
    std::vector<TrialOutcome> activeTrials;
    const CampaignSummary a = runCampaign(cc, &activeTrials);
    cc.base.sched = SchedulerKind::Sweep;
    std::vector<TrialOutcome> sweepTrials;
    const CampaignSummary s = runCampaign(cc, &sweepTrials);

    EXPECT_EQ(a.trials, s.trials);
    EXPECT_EQ(a.accountedTrials, s.accountedTrials);
    EXPECT_EQ(a.deadlockedTrials, s.deadlockedTrials);
    EXPECT_EQ(a.accepted, s.accepted);
    EXPECT_EQ(a.delivered, s.delivered);
    EXPECT_EQ(a.refused, s.refused);
    EXPECT_EQ(a.pending, s.pending);
    EXPECT_EQ(a.duplicates, s.duplicates);
    EXPECT_EQ(a.faultEvents, s.faultEvents);
    EXPECT_EQ(a.deliveryRate, s.deliveryRate);
    EXPECT_EQ(a.meanPreFaultLatency, s.meanPreFaultLatency);
    EXPECT_EQ(a.meanPostFaultLatency, s.meanPostFaultLatency);
    EXPECT_EQ(a.meanRecoveryCycles, s.meanRecoveryCycles);
    EXPECT_EQ(a.maxRecoveryCycles, s.maxRecoveryCycles);
    EXPECT_EQ(a.flitEvents, s.flitEvents);

    ASSERT_EQ(activeTrials.size(), sweepTrials.size());
    for (std::size_t i = 0; i < activeTrials.size(); ++i) {
        EXPECT_EQ(activeTrials[i].delivered, sweepTrials[i].delivered);
        EXPECT_EQ(activeTrials[i].cyclesRun, sweepTrials[i].cyclesRun);
        EXPECT_EQ(activeTrials[i].flitEvents,
                  sweepTrials[i].flitEvents);
        EXPECT_EQ(activeTrials[i].receiverTimeouts,
                  sweepTrials[i].receiverTimeouts);
    }
}

TEST(Sched, TraceFilesAreByteIdentical)
{
    auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    auto runTraced = [&](SchedulerKind k, const std::string& name) {
        SimConfig cfg = baseCfg();
        cfg.sched = k;
        cfg.injectionRate = 0.12;
        cfg.warmupCycles = 100;
        cfg.measureCycles = 600;
        cfg.traceFile = ::testing::TempDir() + "crnet_sched_" + name;
        (void)runExperiment(cfg);
        const std::string text = slurp(cfg.traceFile + ".jsonl");
        std::remove((cfg.traceFile + ".jsonl").c_str());
        std::remove((cfg.traceFile + ".json").c_str());
        return text;
    };
    const std::string active =
        runTraced(SchedulerKind::Active, "active");
    const std::string sweep = runTraced(SchedulerKind::Sweep, "sweep");
    EXPECT_FALSE(active.empty());
    EXPECT_EQ(active, sweep);
}

TEST(Sched, ActiveIsDeterministicAcrossJobs)
{
    SimConfig cfg = baseCfg();
    cfg.sched = SchedulerKind::Active;
    const std::vector<double> loads{0.05, 0.1, 0.2};
    cfg.jobs = 1;
    const auto seq = sweepLoads(cfg, loads);
    cfg.jobs = 4;
    const auto par = sweepLoads(cfg, loads);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectSameResult(seq[i], par[i]);
}

TEST(Sched, ExplicitSendDeliversAtSameCycle)
{
    auto deliveryCycle = [](SchedulerKind k) {
        SimConfig cfg = baseCfg();
        cfg.sched = k;
        Network net(cfg);
        net.setTrafficEnabled(false);
        const MsgId id = net.sendMessage(0, 15, 6);
        EXPECT_NE(id, kInvalidMsg);
        for (Cycle i = 0; i < 500 && !net.isDelivered(id); ++i)
            net.run(1);
        const DeliveredMessage* rec = net.deliveryRecord(id);
        EXPECT_NE(rec, nullptr);
        return rec != nullptr ? rec->deliveredAt : kNeverCycle;
    };
    const Cycle active = deliveryCycle(SchedulerKind::Active);
    const Cycle sweep = deliveryCycle(SchedulerKind::Sweep);
    EXPECT_NE(active, kNeverCycle);
    EXPECT_EQ(active, sweep);
}

TEST(Sched, DeadlockDetectedAtSameCycleAcrossSchedulers)
{
    // Fully adaptive wormhole routing with no protocol and a single
    // VC deadlocks on a torus under load (the paper's motivating
    // failure). The watchdog must trip at the same cycle under both
    // schedulers.
    auto deadlockCycle = [](SchedulerKind k) {
        SimConfig cfg = baseCfg();
        cfg.sched = k;
        cfg.protocol = ProtocolKind::None;
        cfg.radixK = 8;
        cfg.numVcs = 1;
        cfg.bufferDepth = 2;
        cfg.injectionRate = 0.8;
        cfg.messageLength = 32;
        cfg.timeout = 32;
        cfg.deadlockThreshold = 500;
        Network net(cfg);
        while (!net.deadlocked() && net.now() < 30000)
            net.run(1);
        return net.now();
    };
    const Cycle sweep = deadlockCycle(SchedulerKind::Sweep);
    const Cycle active = deadlockCycle(SchedulerKind::Active);
    ASSERT_LT(sweep, 30000u);  // The run really deadlocked.
    EXPECT_EQ(active, sweep);
}

TEST(Sched, RouterSleepsTheTickItGoesIdle)
{
    // A ticked router's wake entry is kNeverCycle exactly when it is
    // idle(), checked every tick, so after every cycle the awake-router
    // gauge (entries due next cycle) counts exactly the busy routers.
    SimConfig cfg = baseCfg();
    cfg.sched = SchedulerKind::Active;
    cfg.injectionRate = 0.1;
    Network net(cfg);
    TickProfiler prof(1);  // Every tick refreshes the gauges.
    net.attachProfiler(&prof);
    const std::atomic<std::uint64_t>* awake =
        Telemetry::instance().gauge("sched.routers_awake");
    const NodeId n = net.topology().numNodes();
    bool mixed = false;
    for (Cycle c = 0; c < 600; ++c) {
        net.run(1);
        std::uint64_t busy = 0;
        for (NodeId id = 0; id < n; ++id)
            busy += net.router(id).idle() ? 0 : 1;
        ASSERT_EQ(awake->load(std::memory_order_relaxed), busy)
            << "after cycle " << c;
        mixed = mixed || (busy > 0 && busy < n);
    }
    net.attachProfiler(nullptr);
    // A run that never had busy and idle routers side by side proves
    // nothing.
    EXPECT_TRUE(mixed);
}

TEST(Sched, ConfigRoundTripsAndDefaultsToActive)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.sched, SchedulerKind::Active);
    cfg.set("sched", "sweep");
    EXPECT_EQ(cfg.sched, SchedulerKind::Sweep);
    cfg.set("sched", "active");
    EXPECT_EQ(cfg.sched, SchedulerKind::Active);
    EXPECT_EQ(toString(SchedulerKind::Sweep), "sweep");
    EXPECT_EQ(toString(SchedulerKind::Active), "active");
    // Configs still naming the deleted skip-ahead mode fail loudly.
    EXPECT_DEATH(cfg.set("sched", "event"), "unknown scheduler");
}

} // namespace
} // namespace crnet
