/**
 * @file
 * Unit tests driving a single Receiver: assembly, pad stripping, kill
 * discard, FCR refusal, order accounting.
 */

#include <gtest/gtest.h>

#include "src/nic/receiver.hh"

namespace crnet {
namespace {

class RecordingSink : public DeliverySink
{
  public:
    void
    onDelivered(const DeliveredMessage& msg) override
    {
        delivered.push_back(msg);
    }

    std::vector<DeliveredMessage> delivered;
};

class ReceiverTest : public ::testing::Test
{
  protected:
    ReceiverTest() { rebuild(); }

    void
    rebuild()
    {
        stats = std::make_unique<NetworkStats>();
        sink = std::make_unique<RecordingSink>();
        rcv = std::make_unique<Receiver>(3, cfg, stats.get(),
                                         sink.get());
    }

    Flit
    makeFlit(FlitType type, MsgId msg, std::uint32_t seq,
             std::uint32_t wire, std::uint32_t payload_len,
             NodeId src = 0, std::uint32_t pair_seq = 0,
             std::uint16_t attempt = 0)
    {
        Flit f;
        f.type = type;
        f.msg = msg;
        f.seq = seq;
        f.src = src;
        f.dst = 3;
        f.payloadLen = payload_len;
        f.pairSeq = pair_seq;
        f.attempt = attempt;
        f.measured = true;
        f.payload = (static_cast<std::uint64_t>(msg) << 20) ^ seq;
        f.stampCrc();
        (void)wire;
        return f;
    }

    /** Feed a whole worm, one flit per cycle. */
    void
    feedWorm(MsgId msg, std::uint32_t payload_len, std::uint32_t wire,
             NodeId src = 0, std::uint32_t pair_seq = 0,
             std::uint16_t attempt = 0)
    {
        for (std::uint32_t i = 0; i < wire; ++i) {
            FlitType t = FlitType::Body;
            if (i == 0)
                t = FlitType::Head;
            else if (i + 1 == wire)
                t = FlitType::Tail;
            else if (i >= payload_len)
                t = FlitType::Pad;
            rcv->acceptFlit(0, 0, makeFlit(t, msg, i, wire,
                                           payload_len, src, pair_seq,
                                           attempt));
            rcv->tick(now++);
        }
        // Extra ticks to drain the buffer.
        for (int i = 0; i < 8; ++i)
            rcv->tick(now++);
    }

    SimConfig cfg;
    std::unique_ptr<NetworkStats> stats;
    std::unique_ptr<RecordingSink> sink;
    std::unique_ptr<Receiver> rcv;
    Cycle now = 0;
};

TEST_F(ReceiverTest, AssemblesAndDeliversOnTail)
{
    feedWorm(1, 4, 10);
    ASSERT_EQ(sink->delivered.size(), 1u);
    const DeliveredMessage& d = sink->delivered[0];
    EXPECT_EQ(d.id, 1u);
    EXPECT_EQ(d.payloadLen, 4u);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_FALSE(d.corrupted);
    EXPECT_EQ(stats->messagesDelivered.value(), 1u);
    EXPECT_EQ(stats->padFlitsConsumed.value(), 5u);
    EXPECT_TRUE(rcv->idle());
}

TEST_F(ReceiverTest, DeliversTheHeadsHeaderNotTheTails)
{
    // The worm header travels once, with the head. Whatever the other
    // flits of a hand-built worm hold in those fields never reaches
    // the delivery record.
    now = 20;
    const std::uint32_t payload_len = 3;
    const std::uint32_t wire = 6;
    for (std::uint32_t i = 0; i < wire; ++i) {
        const FlitType t = i == 0                ? FlitType::Head
                           : i + 1 == wire      ? FlitType::Tail
                           : i >= payload_len   ? FlitType::Pad
                                                : FlitType::Body;
        Flit f = makeFlit(t, 1, i, wire, payload_len, 2, 5);
        f.createdAt = 10;
        f.headInjectedAt = 12;
        if (i > 0) {
            f.payloadLen = 99;
            f.pairSeq = 77;
            f.createdAt = 1;
            f.headInjectedAt = 2;
            f.measured = false;
        }
        rcv->acceptFlit(0, 0, f);
        rcv->tick(now++);
    }
    for (int i = 0; i < 8; ++i)
        rcv->tick(now++);
    ASSERT_EQ(sink->delivered.size(), 1u);
    const DeliveredMessage& d = sink->delivered[0];
    EXPECT_EQ(d.payloadLen, payload_len);
    EXPECT_EQ(d.pairSeq, 5u);
    EXPECT_EQ(d.createdAt, 10u);
    EXPECT_EQ(d.headInjectedAt, 12u);
    EXPECT_TRUE(d.measured);
    EXPECT_EQ(stats->measuredDelivered.value(), 1u);
    EXPECT_EQ(stats->measuredPayloadFlits.value(), payload_len);
}

TEST_F(ReceiverTest, CreditsReturnedPerConsumedFlit)
{
    feedWorm(1, 4, 10);
    // One credit per flit: total equals the wire length; tick-level
    // granularity already checked via flitsConsumed.
    EXPECT_EQ(stats->flitsConsumed.value(), 10u);
}

TEST_F(ReceiverTest, KillDiscardsPartialMessage)
{
    for (std::uint32_t i = 0; i < 4; ++i) {
        rcv->acceptFlit(0, 0, makeFlit(i == 0 ? FlitType::Head
                                              : FlitType::Body,
                                       7, i, 16, 8));
        rcv->tick(now++);
    }
    Flit kill;
    kill.type = FlitType::Kill;
    kill.msg = 7;
    rcv->acceptFlit(0, 0, kill);
    for (int i = 0; i < 4; ++i)
        rcv->tick(now++);
    EXPECT_TRUE(rcv->idle());
    EXPECT_EQ(sink->delivered.size(), 0u);
}

TEST_F(ReceiverTest, RetryAfterKillDeliversOnce)
{
    // Partial attempt 0, kill, then full attempt 1.
    for (std::uint32_t i = 0; i < 3; ++i) {
        rcv->acceptFlit(0, 0,
                        makeFlit(i == 0 ? FlitType::Head
                                        : FlitType::Body,
                                 9, i, 10, 4, 0, 0, 0));
        rcv->tick(now++);
    }
    Flit kill;
    kill.type = FlitType::Kill;
    kill.msg = 9;
    kill.attempt = 0;
    rcv->acceptFlit(0, 0, kill);
    rcv->tick(now++);
    feedWorm(9, 4, 10, 0, 0, 1);
    ASSERT_EQ(sink->delivered.size(), 1u);
    EXPECT_EQ(sink->delivered[0].attempts, 2u);
    EXPECT_EQ(stats->duplicateDeliveries.value(), 0u);
}

TEST_F(ReceiverTest, KillCutAssembliesFinalizeInMsgIdOrder)
{
    // Two complete payloads, ids 9 then 3, on different ejection VCs;
    // kills cut both worms before their tails. The next tick
    // finalizes both, and the sink sees them in MsgId order.
    cfg.numVcs = 2;
    rebuild();
    rcv->setDynamicFaults(true);
    for (std::uint32_t seq = 0; seq < 2; ++seq) {
        const FlitType t = seq == 0 ? FlitType::Head : FlitType::Body;
        rcv->acceptFlit(0, 0, makeFlit(t, 9, seq, 4, 2, /*src=*/1));
        rcv->acceptFlit(0, 1, makeFlit(t, 3, seq, 4, 2, /*src=*/2));
    }
    for (int i = 0; i < 4; ++i)
        rcv->tick(now++);
    EXPECT_EQ(stats->flitsConsumed.value(), 4u);
    Flit kill;
    kill.type = FlitType::Kill;
    kill.msg = 9;
    rcv->acceptFlit(0, 0, kill);
    kill.msg = 3;
    rcv->acceptFlit(0, 1, kill);
    EXPECT_TRUE(sink->delivered.empty());
    rcv->tick(now++);
    ASSERT_EQ(sink->delivered.size(), 2u);
    EXPECT_EQ(sink->delivered[0].id, 3u);
    EXPECT_EQ(sink->delivered[1].id, 9u);
    EXPECT_EQ(stats->assembliesFinalized.value(), 2u);
    EXPECT_TRUE(rcv->idle());
}

TEST_F(ReceiverTest, ReorderedDeliveryCountsAsViolationNotDuplicate)
{
    feedWorm(1, 4, 10, /*src=*/2, /*pair_seq=*/0);
    feedWorm(2, 4, 10, /*src=*/2, /*pair_seq=*/2);  // Gap: not yet an
                                                    // anomaly.
    feedWorm(3, 4, 10, /*src=*/2, /*pair_seq=*/1);  // Late arrival.
    EXPECT_EQ(stats->orderViolations.value(), 1u);
    EXPECT_EQ(stats->duplicateDeliveries.value(), 0u);
}

TEST_F(ReceiverTest, TrueDuplicateSequenceIsCounted)
{
    feedWorm(1, 4, 10, /*src=*/2, /*pair_seq=*/0);
    feedWorm(2, 4, 10, /*src=*/2, /*pair_seq=*/0);  // Same pairSeq.
    EXPECT_EQ(stats->duplicateDeliveries.value(), 1u);
    EXPECT_EQ(stats->orderViolations.value(), 0u);
}

TEST_F(ReceiverTest, PerSourceSequencesIndependent)
{
    feedWorm(1, 4, 10, /*src=*/2, /*pair_seq=*/0);
    feedWorm(2, 4, 10, /*src=*/4, /*pair_seq=*/0);
    feedWorm(3, 4, 10, /*src=*/2, /*pair_seq=*/1);
    EXPECT_EQ(stats->orderViolations.value(), 0u);
    EXPECT_EQ(stats->duplicateDeliveries.value(), 0u);
}

TEST_F(ReceiverTest, CrModeDeliversCorruptedAndCounts)
{
    cfg.protocol = ProtocolKind::Cr;
    rebuild();
    Flit h = makeFlit(FlitType::Head, 5, 0, 3, 2);
    h.payload ^= 1;  // Corrupt.
    h.corrupted = true;
    rcv->acceptFlit(0, 0, h);
    rcv->tick(now++);
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Body, 5, 1, 3, 2));
    rcv->tick(now++);
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Tail, 5, 2, 3, 2));
    for (int i = 0; i < 4; ++i)
        rcv->tick(now++);
    ASSERT_EQ(sink->delivered.size(), 1u);
    EXPECT_TRUE(sink->delivered[0].corrupted);
    EXPECT_EQ(stats->corruptedDeliveries.value(), 1u);
}

TEST_F(ReceiverTest, FcrRefusesCorruptedPayloadFlit)
{
    cfg.protocol = ProtocolKind::Fcr;
    rebuild();
    Flit h = makeFlit(FlitType::Head, 5, 0, 12, 2);
    h.payload ^= 1;
    h.corrupted = true;
    rcv->acceptFlit(0, 0, h);
    for (int i = 0; i < 10; ++i)
        rcv->tick(now++);
    // Nothing consumed: no credits, one refusal.
    EXPECT_EQ(stats->flitsConsumed.value(), 0u);
    EXPECT_EQ(stats->refusals.value(), 1u);
    EXPECT_FALSE(rcv->idle());

    // The kill token clears the refusal and the buffer.
    Flit kill;
    kill.type = FlitType::Kill;
    kill.msg = 5;
    rcv->acceptFlit(0, 0, kill);
    rcv->tick(now++);
    EXPECT_TRUE(rcv->idle());
}

TEST_F(ReceiverTest, FcrRefusesWrongDestination)
{
    cfg.protocol = ProtocolKind::Fcr;
    rebuild();
    Flit h = makeFlit(FlitType::Head, 6, 0, 12, 2);
    h.dst = 9;  // Mis-delivered (e.g. corrupted header address).
    rcv->acceptFlit(0, 0, h);
    for (int i = 0; i < 5; ++i)
        rcv->tick(now++);
    EXPECT_EQ(stats->refusals.value(), 1u);
    EXPECT_EQ(stats->flitsConsumed.value(), 0u);
}

TEST_F(ReceiverTest, FcrConsumesCorruptedPadsHarmlessly)
{
    cfg.protocol = ProtocolKind::Fcr;
    rebuild();
    // Clean payload, corrupted pad: must still deliver (pads carry no
    // data and are exempt from the check).
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Head, 8, 0, 6, 2));
    rcv->tick(now++);
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Body, 8, 1, 6, 2));
    rcv->tick(now++);
    for (std::uint32_t i = 2; i < 5; ++i) {
        Flit pad = makeFlit(FlitType::Pad, 8, i, 6, 2);
        pad.payload ^= 0xff;
        pad.corrupted = true;
        rcv->acceptFlit(0, 0, pad);
        rcv->tick(now++);
    }
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Tail, 8, 5, 6, 2));
    for (int i = 0; i < 4; ++i)
        rcv->tick(now++);
    ASSERT_EQ(sink->delivered.size(), 1u);
    EXPECT_FALSE(sink->delivered[0].corrupted);
    EXPECT_EQ(stats->refusals.value(), 0u);
}

TEST_F(ReceiverTest, OneFlitPerEjectionChannelPerCycle)
{
    cfg.numVcs = 2;
    rebuild();
    // Two worms on different VCs of the same channel.
    rcv->acceptFlit(0, 0, makeFlit(FlitType::Head, 1, 0, 2, 1));
    rcv->acceptFlit(0, 1, makeFlit(FlitType::Head, 2, 0, 2, 1, 4));
    rcv->tick(now++);
    EXPECT_EQ(stats->flitsConsumed.value(), 1u);
    rcv->tick(now++);
    EXPECT_EQ(stats->flitsConsumed.value(), 2u);
}

TEST_F(ReceiverTest, MeasuredLatencyRecorded)
{
    // The receiver counts a measured delivery and hands the sink the
    // timestamps the latency accumulators need; it never adds to
    // those accumulators itself (the Network does, in node order).
    now = 20;
    const std::uint32_t wire = 10;
    for (std::uint32_t i = 0; i < wire; ++i) {
        const FlitType t = i == 0          ? FlitType::Head
                           : i + 1 == wire ? FlitType::Tail
                           : i >= 4        ? FlitType::Pad
                                           : FlitType::Body;
        Flit f = makeFlit(t, 1, i, wire, 4);
        f.createdAt = 5;
        f.headInjectedAt = 9;
        rcv->acceptFlit(0, 0, f);
        rcv->tick(now++);
    }
    EXPECT_EQ(stats->measuredDelivered.value(), 1u);
    EXPECT_EQ(stats->measuredPayloadFlits.value(), 4u);
    ASSERT_EQ(sink->delivered.size(), 1u);
    const DeliveredMessage& d = sink->delivered[0];
    EXPECT_TRUE(d.measured);
    EXPECT_EQ(d.createdAt, 5u);
    EXPECT_EQ(d.headInjectedAt, 9u);
    EXPECT_EQ(d.deliveredAt, 20u + wire - 1);  // The tail's tick.
    EXPECT_EQ(stats->totalLatency.count(), 0u);
    EXPECT_EQ(stats->netLatency.count(), 0u);
    EXPECT_EQ(stats->latencyHist.count(), 0u);
}

} // namespace
} // namespace crnet
