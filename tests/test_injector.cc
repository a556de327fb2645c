/**
 * @file
 * Unit tests driving a single Injector: padding, timeout/kill,
 * retransmission order, credits, commit.
 */

#include <gtest/gtest.h>

#include "src/nic/injector.hh"
#include "src/nic/padding.hh"

namespace crnet {
namespace {

class InjectorTest : public ::testing::Test
{
  protected:
    InjectorTest() { rebuild(); }

    void
    rebuild()
    {
        topo = std::make_unique<TorusTopology>(4, 2);
        faults = std::make_unique<FaultModel>(*topo, 0.0, Rng(1));
        algo = std::make_unique<MinimalAdaptiveRouting>(
            *topo, *faults, cfg.numVcs);
        stats = std::make_unique<NetworkStats>();
        inj = std::make_unique<Injector>(0, cfg, *topo, *algo,
                                         stats.get(), Rng(2));
    }

    PendingMessage
    msgTo(NodeId dst, std::uint32_t len, std::uint32_t seq = 0)
    {
        PendingMessage m;
        m.id = nextId++;
        m.src = 0;
        m.dst = dst;
        m.payloadLen = len;
        m.createdAt = now;
        m.pairSeq = seq;
        m.measured = true;
        return m;
    }

    /** Tick and return flits emitted this cycle. */
    std::vector<InjectedFlit>
    step()
    {
        inj->tick(now++);
        return inj->sent;
    }

    SimConfig cfg;  // Defaults: torus 16x16 ignored; injector only
                    // uses vcs/depth/channels/protocol/timeout.
    std::unique_ptr<TorusTopology> topo;
    std::unique_ptr<FaultModel> faults;
    std::unique_ptr<MinimalAdaptiveRouting> algo;
    std::unique_ptr<NetworkStats> stats;
    std::unique_ptr<Injector> inj;
    Cycle now = 0;
    MsgId nextId = 100;
};

TEST_F(InjectorTest, EmitsWormInOrderWithPadsAndTail)
{
    // dst 5 = (1,1): 2 hops. CR wire = capacity(2,2)+slack =
    // (2+2)*2+2+2+2 = 14.
    inj->enqueue(msgTo(5, 4));
    std::vector<WireFlit> flits;
    std::vector<CommittedSample> samples;
    for (int i = 0; i < 40; ++i) {
        bool tail = false;
        for (const auto& f : step()) {
            flits.push_back(f.flit);
            tail = tail || f.flit.isTail();
            inj->acceptCredit(f.injChannel, f.vc);  // Instant drain.
        }
        // The commit sample is staged at the tail's tick only.
        if (tail)
            samples = inj->committedStats;
        else
            EXPECT_TRUE(inj->committedStats.empty()) << "cycle " << i;
    }
    const std::uint32_t wire = wireLength(ProtocolKind::Cr, 4, 2, 2, 2);
    ASSERT_EQ(flits.size(), wire);
    EXPECT_EQ(flits.front().type, FlitType::Head);
    EXPECT_EQ(flits.back().type, FlitType::Tail);
    for (std::uint32_t i = 0; i < wire; ++i) {
        EXPECT_EQ(flits[i].seq, i);
        EXPECT_TRUE(flits[i].checksumOk());
        if (i > 0 && i < 4) {
            EXPECT_EQ(flits[i].type, FlitType::Body);
        }
        if (i >= 4 && i + 1 < wire) {
            EXPECT_EQ(flits[i].type, FlitType::Pad);
        }
    }
    EXPECT_EQ(stats->messagesCommitted.value(), 1u);
    EXPECT_EQ(stats->padFlitsInjected.value(), wire - 5);
    EXPECT_TRUE(inj->idle());
    // The measured commit is staged for the owner to apply; the
    // injector never adds to the accumulators itself.
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].attempts, 1.0);
    EXPECT_DOUBLE_EQ(samples[0].padFrac,
                     static_cast<double>(wire - 5) / wire);
    EXPECT_EQ(stats->attempts.count(), 0u);
    EXPECT_EQ(stats->padOverhead.count(), 0u);
}

TEST_F(InjectorTest, NextEventCycleTracksQueueMinExactly)
{
    // Empty and idle: no deadline at all.
    EXPECT_EQ(inj->nextEventCycle(0), kNeverCycle);

    // The incremental queue minimum must be exact (identical to a
    // full rescan) through out-of-order pushes...
    PendingMessage m1 = msgTo(5, 4);
    m1.notBefore = 100;
    PendingMessage m2 = msgTo(6, 4);
    m2.notBefore = 20;
    PendingMessage m3 = msgTo(9, 4);
    m3.notBefore = 160;
    inj->enqueue(m1);
    EXPECT_EQ(inj->nextEventCycle(0), 100u);
    inj->enqueue(m2);
    EXPECT_EQ(inj->nextEventCycle(0), 20u);
    inj->enqueue(m3);
    EXPECT_EQ(inj->nextEventCycle(0), 20u);

    // A due message pins the wake to the very next cycle.
    EXPECT_EQ(inj->nextEventCycle(25), 26u);

    // ...and through erase-of-min: from cycle 20, m2 starts (erasing
    // the queue minimum) and commits under instant credit drain.
    now = 20;
    bool sawActive = false;
    for (int i = 0; i < 40; ++i) {
        for (const auto& f : step())
            inj->acceptCredit(f.injChannel, f.vc);
        if (!sawActive && stats->messagesCommitted.value() == 0) {
            // Mid-worm, the injector demands every cycle.
            EXPECT_EQ(inj->nextEventCycle(now), now + 1);
            sawActive = true;
        }
    }
    EXPECT_TRUE(sawActive);
    EXPECT_EQ(stats->messagesCommitted.value(), 1u);
    // The recomputed minimum fell back to m1's 100 — not m2's stale
    // 20, and not kNeverCycle.
    EXPECT_EQ(inj->nextEventCycle(now), 100u);
}

TEST_F(InjectorTest, RespectsCreditsFromRouter)
{
    inj->enqueue(msgTo(5, 4));
    // bufferDepth = 2 credits; no returns: exactly 2 flits emitted.
    int emitted = 0;
    for (int i = 0; i < 10; ++i)
        emitted += static_cast<int>(step().size());
    EXPECT_EQ(emitted, 2);
}

TEST_F(InjectorTest, StallTimeoutKillsAndRetries)
{
    cfg.timeout = 8;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 4;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    // Emit 2 flits, then never credit: injection stalls, timeout
    // fires, a kill token is emitted on the channel.
    bool saw_kill = false;
    for (int i = 0; i < 30 && !saw_kill; ++i) {
        for (const auto& f : step())
            saw_kill |= f.flit.isKill();
    }
    EXPECT_TRUE(saw_kill);
    EXPECT_EQ(stats->sourceKills.value(), 1u);
    EXPECT_FALSE(inj->idle());  // Retry is queued.

    // After the gap, the retry re-emits the head with attempt = 1.
    bool saw_retry_head = false;
    for (int i = 0; i < 30 && !saw_retry_head; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead()) {
                EXPECT_EQ(f.flit.attempt, 1u);
                saw_retry_head = true;
            }
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    EXPECT_TRUE(saw_retry_head);
}

TEST_F(InjectorTest, TimeoutOnlyArmsAfterFirstFlit)
{
    cfg.timeout = 4;
    rebuild();
    // Two messages to the same destination: the second waits (busy
    // destination) and must NOT time out while waiting.
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(5, 4, 1));
    for (int i = 0; i < 50; ++i)
        step();  // No credits: first worm stalls and gets killed;
                 // second never starts, never "times out" silently.
    EXPECT_GE(stats->sourceKills.value(), 1u);
    // Kills only from the started worm; aborted count stays 0.
    EXPECT_EQ(stats->abortedByBkill.value(), 0u);
}

TEST_F(InjectorTest, IminSchemeAlsoDetectsStall)
{
    cfg.timeoutScheme = TimeoutScheme::SourceImin;
    cfg.timeout = 8;
    rebuild();
    inj->enqueue(msgTo(5, 8));
    bool saw_kill = false;
    for (int i = 0; i < 60 && !saw_kill; ++i)
        for (const auto& f : step())
            saw_kill |= f.flit.isKill();
    EXPECT_TRUE(saw_kill);
}

TEST_F(InjectorTest, PathWideSchemeNeverSourceKills)
{
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.timeout = 4;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    for (int i = 0; i < 60; ++i)
        step();
    EXPECT_EQ(stats->sourceKills.value(), 0u);
}

TEST_F(InjectorTest, AbortRequeuesAndCooldownResetsCredits)
{
    inj->enqueue(msgTo(5, 4));
    step();  // Head emitted (credit consumed).
    const MsgId id = nextId - 1;
    inj->acceptAbort(0, 0, id);
    step();
    EXPECT_EQ(stats->abortedByBkill.value(), 1u);
    // Retry must eventually re-emit with a full credit window.
    bool saw_head = false;
    int emitted_before_credit = 0;
    for (int i = 0; i < 40; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                saw_head = true;
            ++emitted_before_credit;
        }
    }
    EXPECT_TRUE(saw_head);
    EXPECT_EQ(emitted_before_credit, 2);  // Full bufferDepth restored.
}

TEST_F(InjectorTest, PerDestinationOrderIsPreserved)
{
    cfg.timeout = 8;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(5, 4, 1));
    // Let worms flow freely; the second must only start after the
    // first commits, and heads must appear in pairSeq order.
    std::vector<std::uint32_t> head_seqs;
    for (int i = 0; i < 100; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                head_seqs.push_back(inj->sentHeaders[f.header].pairSeq);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    ASSERT_EQ(head_seqs.size(), 2u);
    EXPECT_EQ(head_seqs[0], 0u);
    EXPECT_EQ(head_seqs[1], 1u);
    EXPECT_EQ(stats->messagesCommitted.value(), 2u);
}

TEST_F(InjectorTest, DifferentDestinationsDontBlockEachOther)
{
    cfg.numVcs = 2;  // Two worms in flight on one channel.
    rebuild();
    inj->enqueue(msgTo(5, 4, 0));
    inj->enqueue(msgTo(6, 4, 0));
    std::vector<NodeId> head_dsts;
    for (int i = 0; i < 100; ++i) {
        for (const auto& f : step()) {
            if (f.flit.isHead())
                head_dsts.push_back(f.flit.dst);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    ASSERT_EQ(head_dsts.size(), 2u);
    // Both start long before either commits (interleaved worms).
    EXPECT_EQ(inj->activeWorms(), 0u);
    EXPECT_EQ(stats->messagesCommitted.value(), 2u);
}

TEST_F(InjectorTest, QueueBoundDropsExcess)
{
    cfg.maxPendingPerNode = 2;
    rebuild();
    EXPECT_TRUE(inj->enqueue(msgTo(5, 4)));
    EXPECT_TRUE(inj->enqueue(msgTo(6, 4)));
    EXPECT_FALSE(inj->enqueue(msgTo(7, 4)));
    EXPECT_EQ(stats->sourceQueueDrops.value(), 1u);
}

TEST_F(InjectorTest, MaxRetriesGivesUp)
{
    cfg.maxRetries = 2;
    cfg.timeout = 4;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    const PendingMessage m = msgTo(5, 4);
    inj->enqueue(m);
    Cycle gaveUpAt = kNeverCycle;
    std::vector<FailedMessage> staged;
    std::vector<Cycle> stagedAt;
    for (int i = 0; i < 300; ++i) {
        const Cycle at = now;
        step();  // Never credit: kills forever until the cap.
        if (gaveUpAt == kNeverCycle && stats->messagesFailed.value() > 0)
            gaveUpAt = at;
        for (const FailedMessage& f : inj->failed) {
            staged.push_back(f);
            stagedAt.push_back(at);
        }
    }
    EXPECT_EQ(stats->messagesFailed.value(), 1u);
    EXPECT_EQ(stats->measuredFailed.value(), 1u);
    EXPECT_TRUE(inj->idle());
    // The give-up is staged for the owner (the Network refuses it in
    // the ledger) at the tick it happens.
    ASSERT_EQ(staged.size(), 1u);
    EXPECT_EQ(staged[0].msg.id, m.id);
    EXPECT_EQ(staged[0].at, gaveUpAt);
    EXPECT_EQ(stagedAt[0], gaveUpAt);
}

TEST_F(InjectorTest, MisrouteBudgetGrantedAfterConfiguredRetries)
{
    cfg.misrouteAfterRetries = 2;
    cfg.misrouteBudget = 3;
    cfg.timeout = 4;
    cfg.backoff = BackoffScheme::Static;
    cfg.backoffGap = 2;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    std::vector<std::uint8_t> budgets;
    for (int i = 0; i < 200 && budgets.size() < 3; ++i) {
        for (const auto& f : step())
            if (f.flit.isHead())
                budgets.push_back(f.flit.misrouteBudget);
        // Never credit: every attempt stalls and gets killed.
    }
    ASSERT_GE(budgets.size(), 3u);
    EXPECT_EQ(budgets[0], 0u);  // Attempt 0.
    EXPECT_EQ(budgets[1], 0u);  // Attempt 1.
    EXPECT_EQ(budgets[2], 3u);  // Attempt 2: budget granted.
}

TEST_F(InjectorTest, FcrPadsAfterPayload)
{
    cfg.protocol = ProtocolKind::Fcr;
    rebuild();
    inj->enqueue(msgTo(5, 4));
    std::vector<WireFlit> flits;
    for (int i = 0; i < 80; ++i) {
        for (const auto& f : step()) {
            flits.push_back(f.flit);
            inj->acceptCredit(f.injChannel, f.vc);
        }
    }
    const std::uint32_t wire =
        wireLength(ProtocolKind::Fcr, 4, 2, 2, 2);
    ASSERT_EQ(flits.size(), wire);
    // Everything between payload and tail is PAD.
    for (std::uint32_t i = 4; i + 1 < wire; ++i)
        EXPECT_EQ(flits[i].type, FlitType::Pad);
}

} // namespace
} // namespace crnet
