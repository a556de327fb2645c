/**
 * @file
 * Unit tests driving a single Router: VC allocation, switch behavior,
 * credits, tail release, kill purge/forward, backward kills, and the
 * live-VC masks under a long random sequence with snapshot hops.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/router/router.hh"
#include "src/sim/snapshot.hh"

namespace crnet {
namespace {

/** Fixture: one router of a 4x4 torus at node 5 = (1,1). */
class RouterTest : public ::testing::Test
{
  protected:
    RouterTest() { rebuild(); }

    void
    rebuild()
    {
        cfg = SimConfig{};
        cfg.radixK = 4;
        cfg.dimensionsN = 2;
        cfg.numVcs = numVcs;
        cfg.bufferDepth = 2;
        cfg.protocol = ProtocolKind::Cr;
        topo = std::make_unique<TorusTopology>(4, 2);
        faults = std::make_unique<FaultModel>(*topo, 0.0, Rng(1));
        algo = std::make_unique<MinimalAdaptiveRouting>(*topo, *faults,
                                                        numVcs);
        stats = RouterStats{};
        router = std::make_unique<Router>(5, cfg, *algo, &stats,
                                          Rng(2));
    }

    Flit
    makeFlit(FlitType type, MsgId msg, std::uint32_t seq, NodeId dst)
    {
        Flit f;
        f.type = type;
        f.msg = msg;
        f.seq = seq;
        f.src = 5;
        f.dst = dst;
        f.stampCrc();
        return f;
    }

    std::uint32_t numVcs = 1;
    SimConfig cfg;
    std::unique_ptr<TorusTopology> topo;
    std::unique_ptr<FaultModel> faults;
    std::unique_ptr<MinimalAdaptiveRouting> algo;
    RouterStats stats;
    std::unique_ptr<Router> router;
    Cycle now = 0;
};

TEST_F(RouterTest, HeadRoutesAndForwardsSameCycle)
{
    // Destination (3,1) = 7: +x or -x both minimal (distance 2).
    router->acceptFlit(router->injBase(), 0,
                       makeFlit(FlitType::Head, 1, 0, 7));
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const SentFlit& s = router->sentFlits[0];
    EXPECT_EQ(portDim(s.outPort), 0u);  // An x port.
    EXPECT_TRUE(s.flit.isHead());
    // Credit went back to the injection channel.
    ASSERT_EQ(router->sentCredits.size(), 1u);
    EXPECT_EQ(router->sentCredits[0].inPort, router->injBase());
    EXPECT_EQ(stats.headersRouted.value(), 1u);
    EXPECT_EQ(stats.flitsForwarded.value(), 1u);
}

TEST_F(RouterTest, LocalDestinationEjects)
{
    router->acceptFlit(router->injBase(), 0,
                       makeFlit(FlitType::Head, 1, 0, 5));
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_GE(router->sentFlits[0].outPort, router->ejBase());
}

TEST_F(RouterTest, WormholePipelinesOneFlitPerCycle)
{
    const PortId in = makePort(0, Direction::Minus);  // From node 4.
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 9, 0, 7));
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const PortId out = router->sentFlits[0].outPort;
    for (std::uint32_t seq = 1; seq < 4; ++seq) {
        const auto type = seq == 3 ? FlitType::Tail : FlitType::Body;
        router->acceptFlit(in, 0, makeFlit(type, 9, seq, 7));
        router->acceptCredit(out, 0);  // Downstream keeps consuming.
        router->tick(now++);
        ASSERT_EQ(router->sentFlits.size(), 1u) << "seq " << seq;
        EXPECT_EQ(router->sentFlits[0].flit.seq, seq);
    }
    EXPECT_TRUE(router->vcIdle(in, 0));  // Tail released the VC.
    EXPECT_TRUE(router->idle());
}

TEST_F(RouterTest, BlockedWithoutCreditsThenResumes)
{
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 9, 0, 7));
    router->tick(now++);  // Head forwarded; 1 credit left downstream.
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const PortId out = router->sentFlits[0].outPort;

    router->acceptFlit(in, 0, makeFlit(FlitType::Body, 9, 1, 7));
    router->tick(now++);  // Body forwarded; 0 credits left.
    ASSERT_EQ(router->sentFlits.size(), 1u);

    router->acceptFlit(in, 0, makeFlit(FlitType::Body, 9, 2, 7));
    router->tick(now++);  // No credit: must stall.
    EXPECT_TRUE(router->sentFlits.empty());
    router->tick(now++);
    EXPECT_TRUE(router->sentFlits.empty());

    router->acceptCredit(out, 0);
    router->tick(now++);  // Credit arrived: resumes.
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_EQ(router->sentFlits[0].flit.seq, 2u);
}

TEST_F(RouterTest, VcAllocationIsExclusive)
{
    // Two heads from different input ports, both with a single
    // minimal option: +x toward (3,1)=7 from (1,1)=5... distance from
    // 5 to 6 is 1 via +x only. Use dst 6 for both.
    router->acceptFlit(makePort(0, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 1, 0, 6));
    router->acceptFlit(makePort(1, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 2, 0, 6));
    router->tick(now++);
    // Only one can hold the +x VC; one flit forwarded.
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_EQ(stats.headersRouted.value(), 1u);
}

TEST_F(RouterTest, KillPurgesAndForwards)
{
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 9, 0, 7));
    router->tick(now++);  // Head forwarded.
    const PortId out = router->sentFlits[0].outPort;

    // Two body flits arrive but downstream has 1 credit: one is
    // forwarded, one stays buffered... deliver them one per cycle.
    router->acceptFlit(in, 0, makeFlit(FlitType::Body, 9, 1, 7));
    router->tick(now++);
    router->acceptFlit(in, 0, makeFlit(FlitType::Body, 9, 2, 7));
    router->tick(now++);  // Stalls (0 credits): flit 2 buffered.
    EXPECT_EQ(router->bufferedFlits(), 1u);

    // Kill token arrives: purge + forward next tick, ignoring credits.
    Flit kill = makeFlit(FlitType::Kill, 9, 0, 7);
    router->acceptFlit(in, 0, kill);
    EXPECT_EQ(router->bufferedFlits(), 0u);
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_TRUE(router->sentFlits[0].flit.isKill());
    EXPECT_EQ(router->sentFlits[0].outPort, out);
    EXPECT_EQ(stats.flitsPurged.value(), 1u);
    EXPECT_EQ(stats.killsForwarded.value(), 1u);
    EXPECT_TRUE(router->idle());
}

TEST_F(RouterTest, HeadersLeaveWithTheirHeadsOnly)
{
    // The worm header waits in the input VC beside its head and goes
    // out with it on the next hop; body flits and kill tokens carry
    // none, even when the Flit handed in held header fields.
    const PortId in = makePort(0, Direction::Minus);
    Flit head = makeFlit(FlitType::Head, 9, 0, 7);
    head.payloadLen = 4;
    head.pairSeq = 3;
    head.createdAt = 11;
    head.headInjectedAt = 13;
    head.measured = true;
    router->acceptFlit(in, 0, head);
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const SentFlit& h = router->sentFlits[0];
    ASSERT_TRUE(h.flit.isHead());
    ASSERT_EQ(router->sentHeaders.size(), 1u);
    ASSERT_EQ(h.header, 0u);
    const WormHeader& out = router->sentHeaders[h.header];
    EXPECT_EQ(out.payloadLen, 4u);
    EXPECT_EQ(out.pairSeq, 3u);
    EXPECT_EQ(out.createdAt, 11u);
    EXPECT_EQ(out.headInjectedAt, 13u);
    EXPECT_TRUE(out.measured);
    const PortId port = h.outPort;

    Flit body = makeFlit(FlitType::Body, 9, 1, 7);
    body.payloadLen = 99;
    body.pairSeq = 77;
    router->acceptFlit(in, 0, body);
    router->acceptCredit(port, 0);
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_EQ(router->sentFlits[0].header, kNoHeader);
    EXPECT_TRUE(router->sentHeaders.empty());

    router->acceptFlit(in, 0, makeFlit(FlitType::Kill, 9, 0, 7));
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    ASSERT_TRUE(router->sentFlits[0].flit.isKill());
    EXPECT_EQ(router->sentFlits[0].header, kNoHeader);
    EXPECT_TRUE(router->sentHeaders.empty());
}

TEST_F(RouterTest, KillAnnihilatesWaitingHeader)
{
    // Fill the +x output VC with another worm so the victim's header
    // cannot route... simpler: kill a header that is still Routing
    // because its only output is held. Use two heads to dst 6.
    const PortId inA = makePort(0, Direction::Minus);
    const PortId inB = makePort(1, Direction::Minus);
    router->acceptFlit(inA, 0, makeFlit(FlitType::Head, 1, 0, 6));
    router->tick(now++);
    router->acceptFlit(inB, 0, makeFlit(FlitType::Head, 2, 0, 6));
    router->tick(now++);  // Head 2 blocked in Routing state.
    EXPECT_FALSE(router->vcIdle(inB, 0));

    router->acceptFlit(inB, 0, makeFlit(FlitType::Kill, 2, 0, 6));
    router->tick(now++);
    EXPECT_TRUE(router->vcIdle(inB, 0));
    EXPECT_EQ(stats.killsAnnihilated.value(), 1u);
    // No kill forwarded for the annihilated worm.
    for (const SentFlit& s : router->sentFlits)
        EXPECT_FALSE(s.flit.isKill());
}

TEST_F(RouterTest, StaleKillAtIdleVcIsDropped)
{
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Kill, 77, 0, 6));
    router->tick(now++);
    EXPECT_TRUE(router->sentFlits.empty());
    EXPECT_EQ(stats.staleKills.value(), 1u);
}

TEST_F(RouterTest, BkillTearsDownUpstreamAndNotifiesInjector)
{
    // Start a worm from the injection port, then bkill its output VC.
    router->acceptFlit(router->injBase(), 0,
                       makeFlit(FlitType::Head, 3, 0, 7));
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const PortId out = router->sentFlits[0].outPort;

    router->acceptBkill(out, 0);
    router->tick(now++);
    ASSERT_EQ(router->sentAborts.size(), 1u);
    EXPECT_EQ(router->sentAborts[0].msg, 3u);
    EXPECT_EQ(router->sentAborts[0].injChannel, 0u);
    EXPECT_TRUE(router->idle());
}

TEST_F(RouterTest, BkillOnNetworkInputPropagatesUpstream)
{
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 4, 0, 7));
    router->tick(now++);
    const PortId out = router->sentFlits[0].outPort;

    router->acceptBkill(out, 0);
    router->tick(now++);
    ASSERT_EQ(router->sentBkills.size(), 1u);
    EXPECT_EQ(router->sentBkills[0].inPort, in);
    EXPECT_TRUE(router->idle());
}

TEST_F(RouterTest, StaleBkillIsIgnored)
{
    router->acceptBkill(makePort(0, Direction::Plus), 0);
    router->tick(now++);
    EXPECT_TRUE(router->sentBkills.empty());
    EXPECT_TRUE(router->sentAborts.empty());
    EXPECT_EQ(stats.staleKills.value(), 1u);
}

TEST_F(RouterTest, StragglerAfterPurgeIsDropped)
{
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 6, 0, 7));
    router->tick(now++);
    const PortId out = router->sentFlits[0].outPort;
    router->acceptBkill(out, 0);
    router->tick(now++);  // Purged.
    // A body flit of the dead worm arrives late.
    router->acceptFlit(in, 0, makeFlit(FlitType::Body, 6, 1, 7));
    EXPECT_EQ(router->bufferedFlits(), 0u);
    EXPECT_GE(stats.stragglersDropped.value(), 1u);
}

TEST_F(RouterTest, CorruptedHeaderStallsUnderFcr)
{
    cfg.protocol = ProtocolKind::Fcr;
    // Rebuild with FCR config.
    router = std::make_unique<Router>(5, cfg, *algo, &stats, Rng(2));
    Flit h = makeFlit(FlitType::Head, 8, 0, 7);
    h.payload ^= 0xff;  // Break the checksum.
    h.corrupted = true;
    router->acceptFlit(makePort(0, Direction::Minus), 0, h);
    for (int i = 0; i < 5; ++i) {
        router->tick(now++);
        EXPECT_TRUE(router->sentFlits.empty());
    }
    EXPECT_EQ(stats.headersRouted.value(), 0u);
}

TEST_F(RouterTest, PathWideTimeoutKillsBlockedWorm)
{
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.timeout = 4;
    router = std::make_unique<Router>(5, cfg, *algo, &stats, Rng(2));

    // Block: two worms to dst 6 (single minimal port); the loser
    // waits in Routing state until the path-wide timer fires.
    router->acceptFlit(makePort(0, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 1, 0, 6));
    router->tick(now++);
    router->acceptFlit(makePort(1, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 2, 0, 6));
    bool killed = false;
    for (int i = 0; i < 10 && !killed; ++i) {
        router->tick(now++);
        killed = !router->sentBkills.empty();
    }
    EXPECT_TRUE(killed);
    EXPECT_EQ(stats.pathWideKills.value(), 1u);
    EXPECT_EQ(router->sentBkills[0].inPort,
              makePort(1, Direction::Minus));
}

TEST_F(RouterTest, KilledVcIsQuarantinedAgainstLateCredits)
{
    // Start a worm, kill it mid-flight, then verify (a) the freed
    // output VC is not immediately re-allocatable and (b) a credit
    // arriving after the reset is dropped, not double-counted.
    const PortId in = makePort(0, Direction::Minus);
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 9, 0, 6));
    router->tick(now++);  // Forwarded on the only minimal port (+x).
    ASSERT_EQ(router->sentFlits.size(), 1u);
    const PortId out = router->sentFlits[0].outPort;

    router->acceptFlit(in, 0, makeFlit(FlitType::Kill, 9, 0, 6));
    router->tick(now++);  // Kill forwarded; VC freed + quarantined.
    ASSERT_TRUE(router->sentFlits.size() == 1 &&
                router->sentFlits[0].flit.isKill());

    // A new header wanting the same (quarantined) output VC must wait
    // at least one cycle even though credits read "full".
    router->acceptFlit(in, 0, makeFlit(FlitType::Head, 10, 0, 6));
    router->tick(now++);
    EXPECT_TRUE(router->sentFlits.empty());

    // The late credit from the purged downstream flit is absorbed.
    router->acceptCredit(out, 0);
    EXPECT_EQ(stats.lateCreditsDropped.value(), 1u);

    // After quarantine the new worm proceeds.
    router->tick(now++);
    ASSERT_EQ(router->sentFlits.size(), 1u);
    EXPECT_EQ(router->sentFlits[0].flit.msg, 10u);
}

TEST_F(RouterTest, DropAtBlockRejectsOnlyBlockedHeaders)
{
    cfg.timeoutScheme = TimeoutScheme::DropAtBlock;
    cfg.timeout = 4;
    router = std::make_unique<Router>(5, cfg, *algo, &stats, Rng(2));

    // Worm 1 holds the only minimal port toward 6 and then *stalls
    // mid-body* (no credits returned): DropAtBlock must NOT kill it —
    // its header moved on. Worm 2's header blocks behind it and must
    // be rejected.
    const PortId inA = makePort(0, Direction::Minus);
    const PortId inB = makePort(1, Direction::Minus);
    router->acceptFlit(inA, 0, makeFlit(FlitType::Head, 1, 0, 6));
    router->tick(now++);
    router->acceptFlit(inA, 0, makeFlit(FlitType::Body, 1, 1, 6));
    router->tick(now++);
    router->acceptFlit(inA, 0, makeFlit(FlitType::Body, 1, 2, 6));
    router->acceptFlit(inB, 0, makeFlit(FlitType::Head, 2, 0, 6));
    bool rejected = false;
    for (int i = 0; i < 10 && !rejected; ++i) {
        router->tick(now++);
        rejected = !router->sentBkills.empty();
    }
    ASSERT_TRUE(rejected);
    // The reject went to worm 2's header, not to the stalled body.
    EXPECT_EQ(router->sentBkills[0].inPort, inB);
    EXPECT_EQ(stats.pathWideKills.value(), 1u);
    EXPECT_FALSE(router->vcIdle(inA, 0));  // Worm 1 untouched.
}

TEST_F(RouterTest, MultiVcWormsInterleaveOnOnePhysicalChannel)
{
    numVcs = 2;
    rebuild();
    // Two worms entering on different input ports, both toward 6,
    // now fit on different VCs of the same output port.
    router->acceptFlit(makePort(0, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 1, 0, 6));
    router->acceptFlit(makePort(1, Direction::Minus), 0,
                       makeFlit(FlitType::Head, 2, 0, 6));
    router->tick(now++);
    EXPECT_EQ(stats.headersRouted.value(), 2u);
    // One physical channel: only one flit leaves per cycle.
    EXPECT_EQ(router->sentFlits.size(), 1u);
    router->tick(now++);
    EXPECT_EQ(router->sentFlits.size(), 1u);
}

TEST_F(RouterTest, SwitchGrantRotatesAcrossInputPorts)
{
    numVcs = 4;
    rebuild();
    // Three network inputs and the injection channel each carry a worm
    // toward 6, whose only minimal output is +x; every worm holds its
    // own VC of that output. The worm on -y starts one cycle early and
    // wins alone, so the contended grants start after it, wrap past the
    // injection port (the highest input) and come back round.
    const PortId out = makePort(0, Direction::Plus);
    const PortId minusX = makePort(0, Direction::Minus);
    const PortId plusY = makePort(1, Direction::Plus);
    const PortId minusY = makePort(1, Direction::Minus);
    const PortId inj = router->injBase();
    const std::vector<PortId> inputs = {minusX, plusY, minusY, inj};
    std::map<PortId, std::uint32_t> seq;
    auto feed = [&](PortId p) {
        if (router->inputOccupancy(p, 0) >= cfg.bufferDepth)
            return;
        const std::uint32_t s = seq[p]++;
        router->acceptFlit(p, 0,
                           makeFlit(s == 0 ? FlitType::Head
                                           : FlitType::Body,
                                    100 + p, s, 6));
    };
    std::vector<PortId> grants;
    std::map<PortId, VcId> heldVc;
    for (int cycle = 0; cycle < 11; ++cycle) {
        if (cycle == 0) {
            feed(minusY);
        } else {
            for (PortId p : inputs)
                feed(p);
        }
        router->tick(now++);
        ASSERT_EQ(router->sentFlits.size(), 1u) << "cycle " << cycle;
        ASSERT_EQ(router->sentCredits.size(), 1u) << "cycle " << cycle;
        EXPECT_EQ(router->sentFlits[0].outPort, out);
        const PortId winner = router->sentCredits[0].inPort;
        heldVc[winner] = router->sentFlits[0].vc;
        grants.push_back(winner);
        router->acceptCredit(out, router->sentFlits[0].vc);
    }
    const std::vector<PortId> expected = {minusY, inj, minusX, plusY,
                                          minusY, inj, minusX, plusY,
                                          minusY, inj, minusX};
    EXPECT_EQ(grants, expected);
    // Four worms on four distinct VCs of the one output port.
    std::set<VcId> vcs;
    for (const auto& [port, vc] : heldVc)
        vcs.insert(vc);
    EXPECT_EQ(heldVc.size(), 4u);
    EXPECT_EQ(vcs.size(), 4u);
}

/**
 * A kill retires an Active VC before its token frees the output the VC
 * held, and with the token queued behind others the VC can carry a new
 * worm, Active on another output, while the old output is still
 * allocated to it. A credit for the old output must not make the new
 * worm ready: its own output has no credit, and granting it would
 * underflow that output's ledger.
 */
TEST_F(RouterTest, CreditForOutputOfRehomedHolderIsNotReady)
{
    numVcs = 3;
    rebuild();
    cfg.bufferDepth = 1;
    router = std::make_unique<Router>(5, cfg, *algo, &stats, Rng(2));
    const PortId plusX = makePort(0, Direction::Plus);
    const PortId plusY = makePort(1, Direction::Plus);
    // Three worms to (2,1) = 6 hold the three VCs of +x, each with its
    // head sent and no credit back (one-flit buffers).
    const std::vector<PortId> ins = {makePort(0, Direction::Minus),
                                     plusY, makePort(1, Direction::Minus)};
    for (std::size_t w = 0; w < ins.size(); ++w) {
        router->acceptFlit(ins[w], 0,
                           makeFlit(FlitType::Head, 10 + w, 0, 6));
        router->tick(now++);
        ASSERT_EQ(router->inputProbe(ins[w], 0).outPort, plusX);
        ASSERT_FALSE(router->readyBits(ins[w], 0).creditReady);
    }
    // Kill all three: their tokens leave +x one per cycle.
    for (std::size_t w = 0; w < ins.size(); ++w)
        router->acceptFlit(ins[w], 0,
                           makeFlit(FlitType::Kill, 10 + w, 0, 0));
    router->tick(now++);
    // The last worm's VC takes a worm to (1,2) = 9, out of +y, whose
    // head leaves at once, spending that output's only credit.
    const PortId last = ins.back();
    const VcId old_vc = router->inputProbe(last, 0).outVc;
    router->acceptFlit(last, 0, makeFlit(FlitType::Head, 20, 0, 9));
    router->tick(now++);
    const Router::InputProbe in = router->inputProbe(last, 0);
    ASSERT_EQ(in.state, Router::VcState::Active);
    ASSERT_EQ(in.outPort, plusY);
    ASSERT_TRUE(router->inputKillPending(last, 0));
    ASSERT_TRUE(router->outputProbe(plusX, old_vc).allocated);
    ASSERT_EQ(router->outputProbe(plusY, in.outVc).credits, 0u);
    EXPECT_FALSE(router->readyBits(last, 0).creditReady);

    router->acceptCredit(plusX, old_vc);
    EXPECT_EQ(router->outputProbe(plusX, old_vc).credits, 1u);
    EXPECT_FALSE(router->readyBits(last, 0).creditReady);
    // Its own output's credit does make it ready.
    router->acceptCredit(plusY, in.outVc);
    EXPECT_TRUE(router->readyBits(last, 0).creditReady);
}

/** Every outbox of `r`, serialized in order. */
std::vector<std::uint8_t>
outboxBytes(const Router& r)
{
    StateWriter w;
    w.seq(r.sentFlits, [&](const SentFlit& s) {
        WireFlit::serialize(s.flit, w);
        w.u16(s.outPort);
        w.u16(s.vc);
        w.u32(s.header);
    });
    w.seq(r.sentHeaders,
          [&](const WormHeader& h) { WormHeader::serialize(h, w); });
    w.seq(r.sentCredits, [&](const SentCredit& c) {
        w.u16(c.inPort);
        w.u16(c.vc);
    });
    w.seq(r.sentBkills, [&](const SentBkill& b) {
        w.u16(b.inPort);
        w.u16(b.vc);
    });
    w.seq(r.sentAborts, [&](const SentAbort& a) {
        w.u32(a.injChannel);
        w.u16(a.vc);
        w.u64(a.msg);
    });
    return w.bytes();
}

/**
 * idle() and switch allocation read the live-VC masks. Drive one
 * router through a fixed-seed random sequence of flits, forward and
 * backward kills, credits, router-side timeouts, link deaths and
 * snapshot hops. After every call compare idle() with a scan of the
 * per-VC probes, and each VC's buffered and credit-ready bits with
 * its buffer occupancy and with the credits of the output it holds
 * while Active. A forward kill that retires an Active VC is often
 * followed by a credit for the output it held, which stays allocated
 * to the retired VC until the token crosses the switch. After each
 * hop the restored router's next tick must emit the same outboxes as
 * the original's.
 */
TEST_F(RouterTest, LiveVcMasksTrackEveryStateChange)
{
    for (const TimeoutScheme scheme :
         {TimeoutScheme::PathWide, TimeoutScheme::DropAtBlock}) {
        SCOPED_TRACE(toString(scheme));
        numVcs = 3;
        rebuild();
        cfg.timeoutScheme = scheme;
        cfg.timeout = 3;
        router = std::make_unique<Router>(5, cfg, *algo, &stats, Rng(2));

        const PortId nin = router->numInPorts();
        const PortId nout = router->numOutPorts();
        const PortId nnet = router->networkPorts();
        // What the test has fed each input VC: its worm and progress.
        struct Feed
        {
            MsgId msg = kInvalidMsg;
            std::uint32_t seq = 0;
            std::uint32_t len = 0;
            NodeId dst = 0;
        };
        std::vector<Feed> feed(static_cast<std::size_t>(nin) * numVcs);
        auto at = [&](PortId p, VcId v) -> Feed& {
            return feed[static_cast<std::size_t>(p) * numVcs + v];
        };
        MsgId next_msg = 1;
        bool bkill_queued = false;
        int hops = 0;
        int idle_seen = 0;
        int retired_holder_credits = 0;
        Rng rng(20260706);

        auto check = [&](const char* after) {
            bool scan = !bkill_queued;
            for (PortId p = 0; p < nin; ++p) {
                for (VcId v = 0; v < numVcs; ++v) {
                    scan = scan && router->vcIdle(p, v) &&
                           router->inputOccupancy(p, v) == 0 &&
                           !router->inputKillPending(p, v);
                    const Router::InputProbe in = router->inputProbe(p, v);
                    const Router::ReadyBits bits = router->readyBits(p, v);
                    ASSERT_EQ(bits.buffered, in.buffered > 0)
                        << "VC (" << p << ", " << v << ") after " << after;
                    const bool ready =
                        in.state == Router::VcState::Active &&
                        router->outputProbe(in.outPort, in.outVc)
                                .credits > 0;
                    ASSERT_EQ(bits.creditReady, ready)
                        << "VC (" << p << ", " << v << ") after " << after;
                }
            }
            ASSERT_EQ(router->idle(), scan) << "after " << after;
            idle_seen += scan;
        };

        for (int step = 0; step < 4000; ++step) {
            // Forget worms the router has retired (tail gone, or torn
            // down); a torn-down worm may still send one straggler.
            for (PortId p = 0; p < nin; ++p) {
                for (VcId v = 0; v < numVcs; ++v) {
                    Feed& f = at(p, v);
                    if (f.msg == kInvalidMsg || !router->vcIdle(p, v))
                        continue;
                    if (f.seq < f.len && rng.chance(0.3)) {
                        router->acceptFlit(
                            p, v, makeFlit(FlitType::Body, f.msg, f.seq,
                                           f.dst));
                        check("straggler");
                    }
                    f = Feed{};
                }
            }

            // Alternate loaded stretches with draining ones (no new
            // heads), so the router also passes through idle states.
            const bool draining = step / 250 % 2 == 1;
            const auto p = static_cast<PortId>(rng.below(nin));
            const auto v = static_cast<VcId>(rng.below(numVcs));
            Feed& f = at(p, v);
            // Every 200th step ticks through a snapshot hop.
            const bool hop = step % 200 == 100;
            const std::uint64_t action = hop ? 99 : rng.below(100);
            if (action < 45) {
                // Data: a head into an idle, empty VC, else the next
                // flit of its worm while the buffer has room.
                if (f.msg == kInvalidMsg && !draining &&
                    router->vcIdle(p, v) &&
                    router->inputOccupancy(p, v) == 0) {
                    f.msg = next_msg++;
                    f.len = static_cast<std::uint32_t>(rng.between(2, 6));
                    f.dst = static_cast<NodeId>(rng.below(16));
                    f.seq = 1;
                    router->acceptFlit(
                        p, v, makeFlit(FlitType::Head, f.msg, 0, f.dst));
                } else if (f.msg != kInvalidMsg && f.seq < f.len &&
                           router->inputOccupancy(p, v) <
                               cfg.bufferDepth) {
                    const auto type = f.seq + 1 == f.len
                        ? FlitType::Tail
                        : FlitType::Body;
                    router->acceptFlit(
                        p, v, makeFlit(type, f.msg, f.seq++, f.dst));
                }
                check("data flit");
            } else if (action < 50) {
                // A forward kill: live on a Routing or Active VC (it
                // must name the worm there), stale on an idle one.
                const Router::InputProbe was = router->inputProbe(p, v);
                const MsgId msg = router->vcIdle(p, v)
                    ? next_msg + 1000
                    : was.msg;
                router->acceptFlit(p, v,
                                   makeFlit(FlitType::Kill, msg, 0, 0));
                check("forward kill");
                // A credit for the output the retired VC still holds.
                if (HasFatalFailure())
                    return;
                if (was.state == Router::VcState::Active &&
                    rng.chance(0.5) &&
                    router->outputProbe(was.outPort, was.outVc).credits <
                        cfg.bufferDepth) {
                    retired_holder_credits +=
                        router->outputProbe(was.outPort, was.outVc)
                            .credits == 0;
                    router->acceptCredit(was.outPort, was.outVc);
                    check("credit for a retired holder");
                }
            } else if (action < 54) {
                // A backward kill: live when the output is allocated.
                const auto o = static_cast<PortId>(rng.below(nout));
                router->acceptBkill(o, v);
                bkill_queued = true;
                check("backward kill");
            } else if (action < 80) {
                const auto o = static_cast<PortId>(rng.below(nout));
                if (router->outputProbe(o, v).credits < cfg.bufferDepth)
                    router->acceptCredit(o, v);
                check("credit");
            } else if (action < 81) {
                const auto o = static_cast<PortId>(rng.below(nnet));
                for (VcId ov = 0; ov < numVcs; ++ov)
                    bkill_queued = bkill_queued ||
                                   router->outputProbe(o, ov).allocated;
                router->onOutputLinkDead(o, now);
                check("output link death");
            } else if (action < 82) {
                router->onInputLinkDead(static_cast<PortId>(
                                            rng.below(nnet)),
                                        now);
                check("input link death");
            } else if (hop) {
                // Restore into a fresh router, tick both, compare, and
                // carry on with the restored one.
                StateWriter w;
                Router::serialize(std::as_const(*router), w);
                auto restored = std::make_unique<Router>(
                    5, cfg, *algo, &stats, Rng(99));
                StateReader r(w.bytes());
                Router::serialize(*restored, r);
                restored->afterRestore();
                ASSERT_EQ(restored->idle(), router->idle());
                router->tick(now);
                restored->tick(now);
                ASSERT_EQ(outboxBytes(*restored), outboxBytes(*router))
                    << "restored tick differs at step " << step;
                router = std::move(restored);
                ++hops;
                ++now;
                bkill_queued = false;
                check("restored tick");
            } else {
                router->tick(now++);
                bkill_queued = false;
                check("tick");
            }
            if (HasFatalFailure())
                return;
        }
        // The sequence reached every kind of state change it drives.
        EXPECT_GT(hops, 0);
        EXPECT_GT(idle_seen, 0);
        EXPECT_GT(retired_holder_credits, 0);
        EXPECT_GT(stats.headersRouted.value(), 0u);
        EXPECT_GT(stats.flitsForwarded.value(), 0u);
        EXPECT_GT(stats.killsForwarded.value(), 0u);
        EXPECT_GT(stats.killsAnnihilated.value(), 0u);
        EXPECT_GT(stats.staleKills.value(), 0u);
        EXPECT_GT(stats.bkillHops.value(), 0u);
        EXPECT_GT(stats.pathWideKills.value(), 0u);
        EXPECT_GT(stats.stragglersDropped.value(), 0u);
        EXPECT_GT(stats.linkDeathTeardowns.value(), 0u);
    }
}

} // namespace
} // namespace crnet
