/**
 * @file
 * Telemetry layer tests (src/sim/telemetry.hh): the metrics registry,
 * the tick self-profiler, and the live status writer — plus the load-
 * bearing property that all of it stays off the results path: every
 * observable result is byte-identical with telemetry on or off, under
 * every scheduler and under the parallel engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/fault/campaign.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/telemetry.hh"
#include "tests/same_result.hh"

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
    cfg.seed = 23;
    return cfg;
}

// --- Registry ----------------------------------------------------------

TEST(Telemetry, CounterHandleIsStableAndShared)
{
    Telemetry& t = Telemetry::instance();
    std::atomic<std::uint64_t>* a = t.counter("test.reg.counter");
    std::atomic<std::uint64_t>* b = t.counter("test.reg.counter");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);  // Same name, same storage.
    a->store(0, std::memory_order_relaxed);
    a->fetch_add(3, std::memory_order_relaxed);
    b->fetch_add(4, std::memory_order_relaxed);
    EXPECT_EQ(a->load(std::memory_order_relaxed), 7u);
}

TEST(Telemetry, FirstRegistrationFixesTheKind)
{
    Telemetry& t = Telemetry::instance();
    std::atomic<std::uint64_t>* c = t.counter("test.reg.kinded");
    ASSERT_NE(c, nullptr);
    // A later lookup under another kind resolves to the same entry;
    // the kind recorded at first registration sticks.
    EXPECT_EQ(t.gauge("test.reg.kinded"), c);
    for (const MetricSample& m : t.snapshot()) {
        if (m.name == "test.reg.kinded") {
            EXPECT_EQ(m.kind, MetricKind::Counter);
        }
    }
}

TEST(Telemetry, SnapshotIsNameSortedAndComplete)
{
    Telemetry& t = Telemetry::instance();
    t.counter("test.snap.zz")->store(5, std::memory_order_relaxed);
    t.gauge("test.snap.aa")->store(9, std::memory_order_relaxed);
    const std::vector<MetricSample> snap = t.snapshot();
    ASSERT_GE(snap.size(), 2u);
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_LT(snap[i - 1].name, snap[i].name);
    bool sawZz = false, sawAa = false;
    for (const MetricSample& m : snap) {
        if (m.name == "test.snap.zz") {
            sawZz = true;
            EXPECT_EQ(m.kind, MetricKind::Counter);
            EXPECT_EQ(m.value, 5u);
        }
        if (m.name == "test.snap.aa") {
            sawAa = true;
            EXPECT_EQ(m.kind, MetricKind::Gauge);
            EXPECT_EQ(m.value, 9u);
        }
    }
    EXPECT_TRUE(sawZz);
    EXPECT_TRUE(sawAa);
}

// --- Self-profiler -----------------------------------------------------

TEST(TickProfiler, ArmsExactlyEveryStride)
{
    TickProfiler prof(/*stride=*/5);
    std::uint64_t armed = 0;
    for (int i = 0; i < 100; ++i)
        armed += prof.armTick() ? 1 : 0;
    EXPECT_EQ(armed, 20u);
    EXPECT_EQ(prof.data().ticks, 100u);
    EXPECT_EQ(prof.data().sampledTicks, 20u);
    EXPECT_EQ(prof.data().stride, 5u);
    EXPECT_TRUE(prof.data().enabled);
}

TEST(TickProfiler, TickSecondsExtrapolatesSampledPhases)
{
    TickProfiler prof(/*stride=*/4);
    for (int i = 0; i < 8; ++i) {
        if (prof.armTick())
            prof.add(TickPhase::Routers, 1000);  // 1us per sample.
    }
    // 2 samples x 1us, extrapolated by ticks/sampled = 8/2.
    EXPECT_DOUBLE_EQ(prof.data().tickSeconds(TickPhase::Routers),
                     8.0e-6);
    // Exact phases are never extrapolated.
    prof.add(TickPhase::Audit, 2000);
    EXPECT_DOUBLE_EQ(prof.data().tickSeconds(TickPhase::Audit),
                     2.0e-6);
}

TEST(TickProfiler, MergeSumsEverything)
{
    TickProfiler a, b;
    a.armTick();
    a.add(TickPhase::Deliver, 10);
    b.armTick();
    b.add(TickPhase::Deliver, 20);
    ProfileData merged;
    merged.merge(a.data());
    merged.merge(b.data());
    EXPECT_TRUE(merged.enabled);
    EXPECT_EQ(merged.ticks, 2u);
    EXPECT_EQ(merged.phaseNanos[static_cast<int>(TickPhase::Deliver)],
              30u);
}

// --- Off the results path ----------------------------------------------

TEST(TelemetryIdentity, ProfileOnOffIdenticalUnderEveryScheduler)
{
    for (SchedulerKind sched :
         {SchedulerKind::Sweep, SchedulerKind::Active}) {
        SimConfig off = baseCfg();
        off.sched = sched;
        SimConfig on = off;
        on.profileEnabled = true;
        const RunResult a = runExperiment(off);
        const RunResult b = runExperiment(on);
        expectSameResult(a, b);
        EXPECT_FALSE(a.profile.enabled);
        EXPECT_TRUE(b.profile.enabled);
        EXPECT_GT(b.profile.ticks, 0u);
    }
}

TEST(TelemetryIdentity, ProfiledParallelSweepMatchesSequential)
{
    SimConfig cfg = baseCfg();
    cfg.profileEnabled = true;
    std::vector<SimConfig> points(4, cfg);
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].seed = cfg.seed + i;
    std::vector<SimConfig> par = points;
    for (SimConfig& p : par)
        p.jobs = 4;
    const std::vector<RunResult> seq = runMany(points);
    const std::vector<RunResult> j4 = runMany(par);
    ASSERT_EQ(seq.size(), j4.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectSameResult(seq[i], j4[i]);
}

TEST(TelemetryIdentity, SnapshotBytesIdenticalWithProfilerAttached)
{
    const SimConfig cfg = baseCfg();
    Network plain(cfg);
    plain.setMeasuring(false);
    plain.run(500);

    Network profiled(cfg);
    TickProfiler prof;
    profiled.attachProfiler(&prof);
    profiled.setMeasuring(false);
    profiled.run(500);

    const Snapshot a = captureSnapshot(plain);
    const Snapshot b = captureSnapshot(profiled);
    EXPECT_EQ(plain.now(), profiled.now());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_GT(prof.data().ticks, 0u);
}

TEST(TelemetryIdentity, StatusKeysExcludedFromConfigFingerprint)
{
    SimConfig plain = baseCfg();
    SimConfig telemetered = plain;
    telemetered.statusFile = "/tmp/anywhere.json";
    telemetered.statusEverySeconds = 0.0;
    telemetered.profileEnabled = true;
    EXPECT_EQ(configFingerprint(plain),
              configFingerprint(telemetered));
}

TEST(TelemetryIdentity, CampaignIdenticalWithStatusAndProfile)
{
    CampaignConfig cc;
    cc.base = baseCfg();
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.misrouteAfterRetries = 1;
    cc.base.dynamicLinkKills = 1;
    cc.trials = 4;
    cc.seedBase = 3;

    std::vector<TrialOutcome> plainTrials, teleTrials;
    const CampaignSummary plain = runCampaign(cc, &plainTrials);

    const std::string path =
        testing::TempDir() + "crnet_telemetry_status.json";
    CampaignConfig teleCc = cc;
    teleCc.base.statusFile = path;
    teleCc.base.statusEverySeconds = 0.0;
    teleCc.base.profileEnabled = true;
    const CampaignSummary tele = runCampaign(teleCc, &teleTrials);

    EXPECT_EQ(plain.accountedTrials, tele.accountedTrials);
    EXPECT_EQ(plain.deadlockedTrials, tele.deadlockedTrials);
    EXPECT_EQ(plain.accepted, tele.accepted);
    EXPECT_EQ(plain.delivered, tele.delivered);
    EXPECT_EQ(plain.refused, tele.refused);
    EXPECT_EQ(plain.faultEvents, tele.faultEvents);
    EXPECT_EQ(plain.deliveryRate, tele.deliveryRate);
    EXPECT_EQ(plain.meanPreFaultLatency, tele.meanPreFaultLatency);
    EXPECT_EQ(plain.meanPostFaultLatency, tele.meanPostFaultLatency);
    EXPECT_EQ(plain.flitEvents, tele.flitEvents);
    ASSERT_EQ(plainTrials.size(), teleTrials.size());
    for (std::size_t i = 0; i < plainTrials.size(); ++i) {
        EXPECT_EQ(plainTrials[i].seed, teleTrials[i].seed);
        EXPECT_EQ(plainTrials[i].accepted, teleTrials[i].accepted);
        EXPECT_EQ(plainTrials[i].delivered, teleTrials[i].delivered);
        EXPECT_EQ(plainTrials[i].cyclesRun, teleTrials[i].cyclesRun);
        EXPECT_EQ(plainTrials[i].flitEvents,
                  teleTrials[i].flitEvents);
    }
    EXPECT_FALSE(plain.profile.enabled);
    EXPECT_TRUE(tele.profile.enabled);

    // The status file exists, is valid enough to contain the schema
    // marker, and reports the finished state.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string body = ss.str();
    EXPECT_NE(body.find("\"schema\": \"crnet-status-v1\""),
              std::string::npos);
    EXPECT_NE(body.find("\"state\": \"done\""), std::string::npos);
    EXPECT_NE(body.find("\"kind\": \"campaign\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace crnet
