/**
 * @file
 * Dynamic-fault tests: links and routers dying mid-flight, the
 * delivery-ledger invariant under random kills, repair, scenario
 * parsing, and the fault campaign harness.
 */

#include <gtest/gtest.h>

#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/fault/fault_schedule.hh"

namespace crnet {
namespace {

SimConfig
dynConfig()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.0;
    cfg.messageLength = 8;
    cfg.timeout = 32;
    cfg.maxRetries = 0;  // Retry forever.
    // Misrouting is mandatory under link death: a cut can leave a
    // (src,dst) pair with no live minimal path.
    cfg.misrouteAfterRetries = 1;
    cfg.misrouteBudget = 4;
    cfg.seed = 424242;
    return cfg;
}

FaultEvent
linkDeath(NodeId node, PortId port)
{
    FaultEvent ev;
    ev.kind = FaultEventKind::LinkDeath;
    ev.node = node;
    ev.port = port;
    return ev;
}

// --- Mid-flight link death ------------------------------------------

// A worm whose reserved path dies under it mid-transmission: the
// message must still be delivered (via retry over another path), the
// stranded segments must be reclaimed, and the network must drain.
TEST(FaultDynamic, WormSurvivesPathDeathMidTransmission)
{
    SimConfig cfg = dynConfig();
    Network net(cfg);
    net.setTrafficEnabled(false);

    // 0 -> 1: the only minimal path is the single +x hop, so the
    // worm must hold link 0 -> 1 while transmitting.
    const MsgId id = net.sendMessage(0, 1, 8);
    ASSERT_NE(id, kInvalidMsg);
    // Wait until body flits are streaming over 0 -> 1, then cut the
    // link under the active worm.
    for (Cycle i = 0;
         i < 50 && net.stats().router.flitsForwarded.value() < 4; ++i)
        net.tick();
    ASSERT_GE(net.stats().router.flitsForwarded.value(), 4u);
    ASSERT_FALSE(net.isDelivered(id));
    net.injectFaultEvent(linkDeath(0, makePort(0, Direction::Plus)));

    for (Cycle i = 0; i < 20000 && !net.isDelivered(id); ++i)
        net.tick();
    ASSERT_TRUE(net.isDelivered(id));
    EXPECT_FALSE(net.deliveryRecord(id)->corrupted);
    EXPECT_FALSE(net.deadlocked());

    // The cut reclaimed stranded worm state somewhere.
    const NetworkStats& s = net.stats();
    EXPECT_GT(s.faultEventsApplied.value(), 0u);
    EXPECT_GT(s.router.linkDeathTeardowns.value() +
                  s.flitsLostOnDeadLinks.value() +
                  s.router.flitsPurged.value(),
              0u);

    // And the network fully drains afterwards.
    for (Cycle i = 0; i < 5000 && !net.quiescent(); ++i)
        net.tick();
    EXPECT_TRUE(net.quiescent());
}

TEST(FaultDynamic, FcrFinalizesOrRedeliversButNeverDuplicates)
{
    SimConfig cfg = dynConfig();
    Network net(cfg);
    net.setTrafficEnabled(false);

    // Several messages crossing the same region as it dies.
    std::vector<MsgId> ids;
    for (NodeId src = 0; src < 4; ++src)
        ids.push_back(net.sendMessage(src, src + 8, 8));
    net.run(6);
    net.injectFaultEvent(linkDeath(0, makePort(1, Direction::Plus)));
    net.injectFaultEvent(linkDeath(1, makePort(1, Direction::Plus)));

    for (Cycle i = 0; i < 30000; ++i) {
        net.tick();
        if (net.quiescent())
            break;
    }
    for (const MsgId id : ids)
        EXPECT_TRUE(net.isDelivered(id)) << "msg " << id;
    EXPECT_EQ(net.stats().duplicateDeliveries.value(), 0u);
    EXPECT_EQ(net.stats().corruptedDeliveries.value(), 0u);
    EXPECT_FALSE(net.deadlocked());
}

// Property: a link killed at a random cycle under random traffic
// never loses the delivery-ledger invariant — every accepted message
// is delivered exactly once or the trial is explicitly refused.
TEST(FaultDynamic, RandomKillUnderLoadKeepsLedgerAccounted)
{
    for (std::uint64_t iter = 0; iter < 10; ++iter) {
        SimConfig cfg = dynConfig();
        cfg.injectionRate = 0.20;
        cfg.warmupCycles = 200;
        cfg.measureCycles = 800;
        cfg.dynamicLinkKills = 1;
        cfg.faultWindowStart = 200;
        cfg.faultWindowEnd = 1000;
        cfg.seed = 7000 + iter;

        Network net(cfg);
        DeliveryLedger ledger;
        net.attachLedger(&ledger);

        net.run(1000);
        net.setTrafficEnabled(false);
        for (Cycle i = 0; i < 60000 && !net.quiescent() &&
                          !net.deadlocked();
             i += 16) {
            net.run(16);
        }

        EXPECT_FALSE(net.deadlocked()) << "seed " << cfg.seed;
        EXPECT_GT(ledger.accepted(), 0u);
        EXPECT_EQ(ledger.pending(), 0u) << "seed " << cfg.seed;
        EXPECT_EQ(ledger.duplicates(), 0u) << "seed " << cfg.seed;
        EXPECT_EQ(ledger.unknownDeliveries(), 0u);
        EXPECT_TRUE(ledger.fullyAccounted()) << "seed " << cfg.seed;
        // FCR: everything delivered intact (no refusals configured).
        EXPECT_EQ(ledger.delivered(), ledger.accepted());
        EXPECT_EQ(ledger.corruptedDeliveries(), 0u);
    }
}

// --- Fail-stop router -----------------------------------------------

TEST(FaultDynamic, FailStopRouterRefusalsAreAccounted)
{
    SimConfig cfg = dynConfig();
    cfg.injectionRate = 0.10;
    cfg.maxRetries = 12;  // Unroutable messages must give up.
    cfg.warmupCycles = 100;
    cfg.measureCycles = 400;
    cfg.dynamicRouterKills = 1;
    cfg.faultWindowStart = 150;
    cfg.faultWindowEnd = 300;
    cfg.seed = 31337;

    Network net(cfg);
    DeliveryLedger ledger;
    net.attachLedger(&ledger);

    net.run(500);
    net.setTrafficEnabled(false);
    for (Cycle i = 0;
         i < 120000 && !net.quiescent() && !net.deadlocked(); i += 16)
        net.run(16);

    EXPECT_FALSE(net.deadlocked());
    EXPECT_GT(ledger.accepted(), 0u);
    // Messages to/from the dead router can only resolve as refused;
    // either way, everything must be accounted.
    EXPECT_EQ(ledger.pending(), 0u);
    EXPECT_EQ(ledger.duplicates(), 0u);
    EXPECT_TRUE(ledger.fullyAccounted());
    EXPECT_EQ(ledger.delivered() + ledger.refused(),
              ledger.accepted());
}

// --- Repair ----------------------------------------------------------

TEST(FaultDynamic, RepairedLinkCarriesTrafficAgain)
{
    SimConfig cfg = dynConfig();
    Network net(cfg);
    net.setTrafficEnabled(false);

    const PortId p = makePort(0, Direction::Plus);
    net.injectFaultEvent(linkDeath(0, p));
    EXPECT_FALSE(net.faults().linkOk(0, p));

    // Traffic still flows (around the dead link)...
    const MsgId a = net.sendMessage(0, 1, 8);
    for (Cycle i = 0; i < 20000 && !net.isDelivered(a); ++i)
        net.tick();
    ASSERT_TRUE(net.isDelivered(a));

    // ... and after repair the link is usable again.
    FaultEvent rep;
    rep.kind = FaultEventKind::LinkRepair;
    rep.node = 0;
    rep.port = p;
    net.injectFaultEvent(rep);
    EXPECT_TRUE(net.faults().linkOk(0, p));
    EXPECT_EQ(net.faults().deadLinks().size(), 0u);

    const MsgId b = net.sendMessage(0, 1, 8);
    for (Cycle i = 0; i < 20000 && !net.isDelivered(b); ++i)
        net.tick();
    EXPECT_TRUE(net.isDelivered(b));
    for (Cycle i = 0; i < 5000 && !net.quiescent(); ++i)
        net.tick();
    EXPECT_TRUE(net.quiescent());
}

// --- Scenario parsing -------------------------------------------------

TEST(FaultSchedule, ParsesScenarioText)
{
    TorusTopology t(4, 2);
    const FaultSchedule s = FaultSchedule::fromString(
        "# comment\n"
        "\n"
        "500  kill_link     12 3\n"
        "800  kill_directed 7 1\n"
        "1000 kill_router   9\n"
        "1500 repair_link   12 3\n"
        "2000 burst         0.01 300\n",
        t);
    // burst expands to BurstStart + BurstEnd.
    ASSERT_EQ(s.size(), 6u);
    EXPECT_EQ(s.events()[0].at, 500u);
    EXPECT_EQ(s.events()[0].kind, FaultEventKind::LinkDeath);
    EXPECT_EQ(s.events()[1].kind, FaultEventKind::DirectedLinkDeath);
    EXPECT_EQ(s.events()[2].kind, FaultEventKind::RouterFailStop);
    EXPECT_EQ(s.events()[2].node, 9u);
    EXPECT_EQ(s.events()[3].kind, FaultEventKind::LinkRepair);
    EXPECT_EQ(s.events()[4].kind, FaultEventKind::BurstStart);
    EXPECT_DOUBLE_EQ(s.events()[4].rate, 0.01);
    EXPECT_EQ(s.events()[5].at, 2300u);
    EXPECT_EQ(s.events()[5].kind, FaultEventKind::BurstEnd);
    EXPECT_EQ(s.firstEventCycle(), 500u);
}

TEST(FaultSchedule, BadScenarioLinesAreFatal)
{
    TorusTopology t(4, 2);
    EXPECT_DEATH(FaultSchedule::fromString("500 kill_link 99 0\n", t),
                 "node");
    EXPECT_DEATH(FaultSchedule::fromString("500 frobnicate 1 2\n", t),
                 "unknown");
    EXPECT_DEATH(FaultSchedule::fromString("oops kill_link 1 0\n", t),
                 "");
}

TEST(FaultSchedule, FromConfigPlacesRequestedKills)
{
    SimConfig cfg = dynConfig();
    cfg.dynamicLinkKills = 2;
    cfg.faultWindowStart = 100;
    cfg.faultWindowEnd = 200;
    TorusTopology t(4, 2);
    const FaultSchedule s =
        FaultSchedule::fromConfig(cfg, t, Rng(99));
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.placementShortfall(), 0u);
    for (const FaultEvent& e : s.events()) {
        EXPECT_GE(e.at, 100u);
        EXPECT_LT(e.at, 200u);
        EXPECT_EQ(e.kind, FaultEventKind::LinkDeath);
    }
}

// --- Campaign harness -------------------------------------------------

TEST(FaultCampaign, SmallCampaignFullyAccounts)
{
    CampaignConfig cc;
    cc.base = dynConfig();
    cc.base.injectionRate = 0.10;
    cc.base.warmupCycles = 200;
    cc.base.measureCycles = 600;
    cc.base.dynamicLinkKills = 1;
    cc.trials = 4;
    cc.seedBase = 555;

    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);
    EXPECT_EQ(s.trials, 4u);
    EXPECT_EQ(s.accountedTrials, 4u);
    EXPECT_EQ(s.deadlockedTrials, 0u);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.duplicates, 0u);
    EXPECT_GT(s.accepted, 0u);
    EXPECT_DOUBLE_EQ(s.deliveryRate, 1.0);
    ASSERT_EQ(trials.size(), 4u);
    for (const TrialOutcome& t : trials) {
        EXPECT_TRUE(t.fullyAccounted) << "seed " << t.seed;
        EXPECT_GT(t.faultEvents, 0u);
    }
}

// Regression: a link died while a forward kill was still pending on
// the input VC feeding it — the output's holder record was stale, and
// the death teardown propagated a backward kill onto an upstream wire
// a brand-new worm had reused, cutting it in half (its head survived
// at the next router and collided with the retransmission). Seed 68
// on the campaign's own 8-ary 2-cube reproduced this deterministically.
TEST(FaultCampaign, ArgsSetTheCampaignThenTheBaseConfig)
{
    CampaignConfig cc;
    const char* argv_c[] = {"prog", "k=4", "trials=7", "seed_base=42",
                            "journal=camp.jnl", "trial_retries=45",
                            "load=0.2"};
    cc.applyArgs(7, const_cast<char**>(argv_c));
    EXPECT_EQ(cc.trials, 7u);
    EXPECT_EQ(cc.seedBase, 42u);
    EXPECT_EQ(cc.journalPath, "camp.jnl");
    EXPECT_EQ(cc.trialRetries, 45u);
    EXPECT_EQ(cc.base.radixK, 4u);
    EXPECT_DOUBLE_EQ(cc.base.injectionRate, 0.2);
}

TEST(FaultCampaign, ArgsRefuseACampaignThatCannotRun)
{
    const auto apply = [](const char* arg) {
        CampaignConfig cc;
        const char* argv_c[] = {"prog", arg};
        cc.applyArgs(2, const_cast<char**>(argv_c));
    };
    // -1 would wrap to 4,294,967,295 trials, and abc would run none.
    EXPECT_DEATH(apply("trials=-1"), "expected integer");
    EXPECT_DEATH(apply("trials=abc"), "expected integer");
    EXPECT_DEATH(apply("trials=0"), "expected integer in \\[1, ");
    EXPECT_DEATH(apply("seed_base=x"), "expected integer");
    // The last retry runs drainCap << trial_retries cycles: 500,000
    // has 45 leading zero bits, so 45 doublings fit and 46 do not.
    EXPECT_DEATH(apply("trial_retries=46"),
                 "expected integer in \\[0, 45\\]");
    EXPECT_DEATH(apply("trial_retries=64"), "expected integer");
    EXPECT_DEATH(apply("no_such_key=1"), "unknown config key");
    EXPECT_DEATH(apply("trials"), "expected key=value");
}

TEST(FaultCampaign, StaleOutputHolderDoesNotTearBystanderWorm)
{
    CampaignConfig cc;
    cc.base = dynConfig();
    cc.base.radixK = 8;
    cc.base.injectionRate = 0.15;
    cc.base.messageLength = 16;
    cc.base.warmupCycles = 1000;
    cc.base.measureCycles = 5000;
    cc.base.dynamicLinkKills = 2;
    cc.trials = 1;
    cc.seedBase = 68;

    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);
    EXPECT_EQ(s.accountedTrials, 1u);
    EXPECT_EQ(s.deadlockedTrials, 0u);
    EXPECT_EQ(s.duplicates, 0u);
    ASSERT_EQ(trials.size(), 1u);
    EXPECT_TRUE(trials[0].fullyAccounted);
    EXPECT_DOUBLE_EQ(s.deliveryRate, 1.0);
}

} // namespace
} // namespace crnet
