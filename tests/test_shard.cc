/**
 * @file
 * Shard-equivalence suite: intra-run network sharding (SimConfig::
 * shards) is an execution knob, so shards=K must be bit-identical to
 * shards=1 on every observable output — run summaries, time series,
 * heatmaps, trace files, campaign aggregates and snapshot payloads —
 * under every scheduler. Any divergence means a shard worker raced on
 * shared state or a serial replay ran out of node order (see
 * docs/PERFORMANCE.md for the boundary-exchange argument).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"
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
    cfg.seed = 11;
    return cfg;
}

/** Run `cfg` at shards 1, 2 and 4; require identical results. */
void
expectShardsAgree(SimConfig cfg)
{
    cfg.shards = 1;
    const RunResult one = runExperiment(cfg);
    cfg.shards = 2;
    const RunResult two = runExperiment(cfg);
    cfg.shards = 4;
    const RunResult four = runExperiment(cfg);
    expectSameResult(two, one);
    expectSameResult(four, one);
    // A run that moved no flits proves nothing.
    EXPECT_GT(one.flitEvents, 0u);
}

TEST(Shard, ShardsMatchUnshardedActive)
{
    SimConfig cfg = baseCfg();
    cfg.sched = SchedulerKind::Active;
    cfg.sampleInterval = 100;
    cfg.heatmapEnabled = true;
    expectShardsAgree(cfg);
}

TEST(Shard, ShardsMatchUnshardedSweep)
{
    SimConfig cfg = baseCfg();
    cfg.sched = SchedulerKind::Sweep;
    cfg.sampleInterval = 100;
    cfg.heatmapEnabled = true;
    expectShardsAgree(cfg);
}

TEST(Shard, ShardsMatchUnshardedMidLoadCr)
{
    // Mid load exercises kills, retries and the give-up path, whose
    // ledger refusals the Network applies from the injector outboxes.
    SimConfig cfg = baseCfg();
    cfg.injectionRate = 0.3;
    expectShardsAgree(cfg);
}

TEST(Shard, ShardsMatchUnshardedFcrWithTransientFaults)
{
    SimConfig cfg = baseCfg();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.transientFaultRate = 2e-4;
    cfg.injectionRate = 0.15;
    expectShardsAgree(cfg);
}

TEST(Shard, ShardsMatchUnshardedDynamicFaults)
{
    SimConfig cfg = baseCfg();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.dynamicLinkKills = 2;
    cfg.linkRepairAfter = 800;
    cfg.maxRetries = 40;
    cfg.injectionRate = 0.08;
    cfg.sampleInterval = 200;
    expectShardsAgree(cfg);
}

TEST(Shard, ShardsMatchUnshardedDeepChannels)
{
    SimConfig cfg = baseCfg();
    cfg.channelLatency = 4;
    cfg.timeout = 32;
    expectShardsAgree(cfg);
}

TEST(Shard, UnevenRangesAndClampToNodeCount)
{
    // 16 nodes / 3 shards = uneven contiguous ranges; shards above
    // the node count clamp instead of creating empty workers.
    SimConfig cfg = baseCfg();
    cfg.shards = 1;
    const RunResult one = runExperiment(cfg);
    cfg.shards = 3;
    const RunResult three = runExperiment(cfg);
    cfg.shards = 64;  // > numNodes: clamps to 16.
    const RunResult many = runExperiment(cfg);
    expectSameResult(three, one);
    expectSameResult(many, one);
}

TEST(Shard, TraceFilesAreByteIdentical)
{
    auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    auto runTraced = [&](std::uint32_t shards, const std::string& tag) {
        SimConfig cfg = baseCfg();
        cfg.shards = shards;
        cfg.injectionRate = 0.12;
        cfg.warmupCycles = 100;
        cfg.measureCycles = 600;
        cfg.traceFile = ::testing::TempDir() + "crnet_shard_" + tag;
        (void)runExperiment(cfg);
        const std::string text = slurp(cfg.traceFile + ".jsonl");
        std::remove((cfg.traceFile + ".jsonl").c_str());
        std::remove((cfg.traceFile + ".json").c_str());
        return text;
    };
    const std::string one = runTraced(1, "one");
    const std::string two = runTraced(2, "two");
    const std::string four = runTraced(4, "four");
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(two, one);
    EXPECT_EQ(four, one);
}

TEST(Shard, WatchFilterAdoptionSurvivesSharding)
{
    // The pair-adoption path mutates the tracer's shared watch set,
    // which is why staged events replay through record() serially.
    auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    auto runWatched = [&](std::uint32_t shards,
                          const std::string& tag) {
        SimConfig cfg = baseCfg();
        cfg.shards = shards;
        cfg.injectionRate = 0.2;
        cfg.warmupCycles = 100;
        cfg.measureCycles = 600;
        cfg.watchSpec = "0-15,3-12";
        cfg.traceFile = ::testing::TempDir() + "crnet_watch_" + tag;
        (void)runExperiment(cfg);
        const std::string text = slurp(cfg.traceFile + ".jsonl");
        std::remove((cfg.traceFile + ".jsonl").c_str());
        std::remove((cfg.traceFile + ".json").c_str());
        return text;
    };
    const std::string one = runWatched(1, "one");
    const std::string four = runWatched(4, "four");
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(four, one);
}

TEST(Shard, TracedFaultRunsMatchAtEveryShardCount)
{
    // The prologue keeps every delivery that draws RNG or records a
    // trace event (the corruption draws, dead-wire absorption and its
    // link_loss records, the receivers' and injectors' records), and
    // the shards owner-deliver the router-bound rest. FCR with link
    // kills that get repaired, one fail-stop router (one cycle absorbs
    // flits bound for several shards), a transient rate and a
    // corruption burst, traced unwatched and under a watch list: every
    // shard count must reproduce shards=1's results and trace bytes.
    auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    auto runTraced = [&](std::uint32_t shards, const std::string& watch,
                         RunResult& result) {
        SimConfig cfg = baseCfg();
        cfg.protocol = ProtocolKind::Fcr;
        cfg.maxRetries = 4;  // Messages for the dead router give up.
        // Two flits in flight per wire: a dying router's wires lose
        // flits bound for several shards in the same cycle.
        cfg.channelLatency = 2;
        cfg.injectionRate = 0.12;
        cfg.warmupCycles = 100;
        cfg.measureCycles = 700;
        cfg.dynamicLinkKills = 3;
        cfg.linkRepairAfter = 150;
        cfg.dynamicRouterKills = 1;
        cfg.transientFaultRate = 5e-4;
        cfg.burstStart = 300;
        cfg.burstLen = 100;
        cfg.burstRate = 0.02;
        cfg.watchSpec = watch;
        cfg.shards = shards;
        cfg.traceFile = ::testing::TempDir() + "crnet_fault_trace_" +
                        std::to_string(shards);
        result = runExperiment(cfg);
        const std::string text = slurp(cfg.traceFile + ".jsonl");
        std::remove((cfg.traceFile + ".jsonl").c_str());
        std::remove((cfg.traceFile + ".json").c_str());
        return text;
    };
    for (const std::string watch : {"", "0-15,3-12,5-10,9-6"}) {
        SCOPED_TRACE("watch='" + watch + "'");
        RunResult one;
        const std::string trace = runTraced(1, watch, one);
        EXPECT_GT(one.refusals, 0u);  // Some corruption was detected.
        EXPECT_TRUE(one.drained);
        if (watch.empty()) {
            EXPECT_NE(trace.find("\"ev\":\"link_loss\""),
                      std::string::npos);
            EXPECT_NE(trace.find("\"ev\":\"abort\""), std::string::npos);
        } else {
            EXPECT_FALSE(trace.empty());
        }
        for (const std::uint32_t shards : {2u, 3u, 4u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            RunResult split;
            EXPECT_TRUE(runTraced(shards, watch, split) == trace);
            expectSameResult(split, one);
        }
    }
}

TEST(Shard, CampaignAggregatesMatch)
{
    CampaignConfig cc;
    cc.base = baseCfg();
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.dynamicLinkKills = 1;
    cc.base.maxRetries = 40;
    cc.base.injectionRate = 0.08;
    cc.trials = 3;
    cc.seedBase = 7;

    cc.base.shards = 1;
    std::vector<TrialOutcome> oneTrials;
    const CampaignSummary one = runCampaign(cc, &oneTrials);

    // shards=4 alone, then jobs=2 x shards=2: each trial's network crew
    // runs inside a thread of the outer parallelFor crew.
    for (const auto& [jobs, shards] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 4}, {2, 2}}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " shards=" + std::to_string(shards));
        cc.base.jobs = jobs;
        cc.base.shards = shards;
        std::vector<TrialOutcome> trials;
        const CampaignSummary sum = runCampaign(cc, &trials);

        EXPECT_EQ(sum.trials, one.trials);
        EXPECT_EQ(sum.accountedTrials, one.accountedTrials);
        EXPECT_EQ(sum.deadlockedTrials, one.deadlockedTrials);
        EXPECT_EQ(sum.accepted, one.accepted);
        EXPECT_EQ(sum.delivered, one.delivered);
        EXPECT_EQ(sum.refused, one.refused);
        EXPECT_EQ(sum.pending, one.pending);
        EXPECT_EQ(sum.duplicates, one.duplicates);
        EXPECT_EQ(sum.faultEvents, one.faultEvents);
        EXPECT_EQ(sum.deliveryRate, one.deliveryRate);
        EXPECT_EQ(sum.meanPreFaultLatency, one.meanPreFaultLatency);
        EXPECT_EQ(sum.meanPostFaultLatency, one.meanPostFaultLatency);
        EXPECT_EQ(sum.meanRecoveryCycles, one.meanRecoveryCycles);
        EXPECT_EQ(sum.maxRecoveryCycles, one.maxRecoveryCycles);
        EXPECT_EQ(sum.flitEvents, one.flitEvents);

        ASSERT_EQ(trials.size(), oneTrials.size());
        for (std::size_t i = 0; i < oneTrials.size(); ++i) {
            EXPECT_EQ(trials[i].delivered, oneTrials[i].delivered);
            EXPECT_EQ(trials[i].cyclesRun, oneTrials[i].cyclesRun);
            EXPECT_EQ(trials[i].flitEvents, oneTrials[i].flitEvents);
            EXPECT_EQ(trials[i].receiverTimeouts,
                      oneTrials[i].receiverTimeouts);
        }
    }
}

TEST(Shard, FingerprintIsShardAgnostic)
{
    SimConfig a = baseCfg();
    SimConfig b = baseCfg();
    a.shards = 1;
    b.shards = 4;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
}

TEST(Shard, SnapshotRoundTripsAcrossShardCounts)
{
    // The payload carries no shard state: a snapshot saved mid-run at
    // one shard count must equal the unsharded one byte for byte (the
    // wave buckets are written in the serial order), and restored at
    // another count it must continue to end byte-identical to an
    // uninterrupted unsharded run.
    auto warmed = [](SimConfig c, std::uint32_t shards, Cycle cycles) {
        c.shards = shards;
        auto net = std::make_unique<Network>(c);
        net->run(cycles);
        return net;
    };
    auto finish = [](Network& net) {
        net.setMeasuring(false);
        net.setTrafficEnabled(false);
        net.run(600);
        return captureSnapshot(net).payload;
    };
    auto hop = [&](const SimConfig& c, std::uint32_t save_shards,
                   std::uint32_t load_shards, Cycle cycles) {
        auto saved = warmed(c, save_shards, cycles);
        const Snapshot mid = captureSnapshot(*saved);
        EXPECT_EQ(mid.payload,
                  captureSnapshot(*warmed(c, 1, cycles)).payload)
            << "shards=" << save_shards << " mid-run payload differs";
        SimConfig lc = c;
        lc.shards = load_shards;
        Network cont(lc);
        EXPECT_EQ(restoreSnapshot(cont, mid), "");
        return finish(cont);
    };

    // Input 1: one-cycle channels, shards 4 <-> 1.
    SimConfig cfg = baseCfg();
    cfg.sampleInterval = 100;
    const auto straight = finish(*warmed(cfg, 1, 400));
    EXPECT_EQ(hop(cfg, 4, 1, 400), straight);
    EXPECT_EQ(hop(cfg, 1, 4, 400), straight);

    // Input 2: four-cycle channels and a tight path-wide timeout (its
    // router-side kills send backward kills and aborts), saved at an
    // uneven shards=3 mid-storm. Every bucket then holds several runs
    // — the router run of cycle b - 4 ahead of the NIC runs of cycle
    // b - 1 — with kills, backward kills and aborts in flight, and the
    // restore packs each bucket into one run of one segment.
    SimConfig deep = baseCfg();
    deep.channelLatency = 4;
    deep.timeout = 4;
    deep.timeoutScheme = TimeoutScheme::PathWide;
    deep.injectionRate = 0.2;
    const Cycle save_at = 500;
    {
        auto probe = warmed(deep, 3, save_at);
        const NetworkStats& st = probe->stats();
        EXPECT_GT(st.router.pathWideKills.value(), 0u);
        EXPECT_GT(st.router.killsForwarded.value(), 0u);
        EXPECT_GT(st.router.bkillHops.value(), 0u);
        EXPECT_GT(st.abortedByBkill.value(), 0u);
        EXPECT_FALSE(probe->quiescent());
    }
    const auto deep_straight = finish(*warmed(deep, 1, save_at));
    EXPECT_EQ(hop(deep, 3, 1, save_at), deep_straight);
    EXPECT_EQ(hop(deep, 3, 2, save_at), deep_straight);
}

TEST(Shard, UnshardedSnapshotRestoresIntoUnevenShards)
{
    // A restored bucket lands whole in shard 0's segment, so shards 1
    // and 2 find their events only through the remote lists the
    // restore rebuilds. Save an unsharded run with four-cycle
    // channels and path-wide kills when flits, credits and backward
    // kills are in flight to every shard of a shards=3 split (ranges
    // [0,6), [6,11), [11,16)), restore it at shards=3, and finish.
    SimConfig cfg = baseCfg();
    cfg.channelLatency = 4;
    cfg.timeout = 4;
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.injectionRate = 0.2;
    cfg.shards = 1;
    const std::vector<std::pair<NodeId, NodeId>> ranges = {
        {0, 6}, {6, 11}, {11, 16}};
    auto allInFlight = [&](const Network& net) {
        for (const auto& [begin, end] : ranges) {
            const Network::WaveCensus c = net.inFlight(begin, end);
            if (c.flits == 0 || c.credits == 0 || c.bkills == 0)
                return false;
        }
        return true;
    };
    auto finish = [](Network& net) {
        net.setMeasuring(false);
        net.setTrafficEnabled(false);
        net.run(600);
    };

    Network straight(cfg);
    straight.run(500);
    while (!allInFlight(straight) && straight.now() < 3000)
        straight.run(1);
    ASSERT_TRUE(allInFlight(straight))
        << "no cycle in [500, 3000) with every kind in flight to "
           "every shard";
    const Snapshot mid = captureSnapshot(straight);
    const Cycle savedAt = straight.now();
    finish(straight);

    SimConfig sharded = cfg;
    sharded.shards = 3;
    Network cont(sharded);
    ASSERT_EQ(restoreSnapshot(cont, mid), "");
    EXPECT_EQ(cont.now(), savedAt);
    finish(cont);

    const NetworkStats& a = straight.stats();
    const NetworkStats& b = cont.stats();
    EXPECT_EQ(b.messagesDelivered.value(), a.messagesDelivered.value());
    EXPECT_EQ(b.router.flitsForwarded.value(),
              a.router.flitsForwarded.value());
    EXPECT_EQ(b.router.bkillHops.value(), a.router.bkillHops.value());
    EXPECT_EQ(b.router.pathWideKills.value(),
              a.router.pathWideKills.value());
    EXPECT_EQ(b.abortedByBkill.value(), a.abortedByBkill.value());
    EXPECT_EQ(b.totalLatency.mean(), a.totalLatency.mean());
    EXPECT_TRUE(captureSnapshot(cont).payload ==
                captureSnapshot(straight).payload);
}

TEST(Shard, BetweenTickFaultEventCountsAtOnce)
{
    // A fault event fired between ticks tears down worms through the
    // routers, which count into their shard's block when shards > 1.
    // stats() must show those counts before the next tick, exactly as
    // an unsharded run does.
    SimConfig cfg;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.3;
    cfg.seed = 7;
    FaultEvent ev;
    ev.kind = FaultEventKind::RouterFailStop;
    ev.node = 27;
    auto statsAfterEvent = [&](std::uint32_t shards) {
        SimConfig c = cfg;
        c.shards = shards;
        Network net(c);
        net.run(400);
        net.injectFaultEvent(ev);
        EXPECT_GT(net.stats().router.linkDeathTeardowns.value(), 0u);
        StateWriter w;
        NetworkStats::serialize(net.stats(), w);
        return w.bytes();
    };
    EXPECT_EQ(statsAfterEvent(3), statsAfterEvent(1));
}

TEST(Shard, ConfigKeyRoundTripsAndValidates)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.shards, 1u);
    cfg.set("shards", "4");
    EXPECT_EQ(cfg.shards, 4u);
    cfg.shards = 2000;
    EXPECT_DEATH(cfg.validate(), "shards");
}

} // namespace
} // namespace crnet
