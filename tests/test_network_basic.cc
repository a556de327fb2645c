/**
 * @file
 * End-to-end integration tests of the assembled network: single
 * messages, pipelining, multiple concurrent messages, quiescence.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "src/core/network.hh"
#include "src/nic/padding.hh"

namespace crnet {
namespace {

SimConfig
smallTorusCr()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 1;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.injectionRate = 0.0;
    return cfg;
}

/** Run until a message is delivered or `cap` cycles pass. */
bool
runUntilDelivered(Network& net, MsgId id, Cycle cap)
{
    for (Cycle i = 0; i < cap && !net.isDelivered(id); ++i)
        net.tick();
    return net.isDelivered(id);
}

TEST(NetworkBasic, SingleMessageIsDelivered)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    const MsgId id = net.sendMessage(0, 5, 8);
    ASSERT_NE(id, kInvalidMsg);
    EXPECT_TRUE(runUntilDelivered(net, id, 500));
}

TEST(NetworkBasic, DeliveryRecordFieldsAreConsistent)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    const MsgId id = net.sendMessage(1, 10, 8);
    ASSERT_TRUE(runUntilDelivered(net, id, 500));
    const DeliveredMessage* d = net.deliveryRecord(id);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->src, 1u);
    EXPECT_EQ(d->dst, 10u);
    EXPECT_EQ(d->payloadLen, 8u);
    EXPECT_EQ(d->attempts, 1u);
    EXPECT_FALSE(d->corrupted);
    EXPECT_GT(d->deliveredAt, d->createdAt);
    EXPECT_GE(d->headInjectedAt, d->createdAt);
}

TEST(NetworkBasic, ZeroLoadLatencyTracksDistanceAndLength)
{
    // Head needs ~1 cycle/hop through injection, network and ejection
    // channels; the tail follows wireLen flits behind. Allow slack
    // for per-router pipelining but require the right order of
    // magnitude and monotonicity in distance.
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);

    const NodeId near = 1;   // 1 hop from node 0.
    const NodeId far = 10;   // (2,2): 4 hops from node 0.
    const MsgId m1 = net.sendMessage(0, near, 4);
    ASSERT_TRUE(runUntilDelivered(net, m1, 500));
    const Cycle lat1 =
        net.deliveryRecord(m1)->deliveredAt -
        net.deliveryRecord(m1)->createdAt;

    const MsgId m2 = net.sendMessage(0, far, 4);
    ASSERT_TRUE(runUntilDelivered(net, m2, 500));
    const Cycle lat2 =
        net.deliveryRecord(m2)->deliveredAt -
        net.deliveryRecord(m2)->createdAt;

    EXPECT_GT(lat2, lat1);
    // Zero-load bound: hops + wire length + per-hop pipeline slack.
    const std::uint32_t wire =
        wireLength(ProtocolKind::Cr, 4, 4, cfg.bufferDepth,
                   cfg.padSlack);
    EXPECT_LE(lat2, 3 * (4 + wire) + 20);
}

TEST(NetworkBasic, ManyConcurrentMessagesAllArrive)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    std::vector<MsgId> ids;
    for (NodeId src = 0; src < 16; ++src) {
        const NodeId dst = (src + 7) % 16;
        ids.push_back(net.sendMessage(src, dst, 8));
    }
    for (Cycle i = 0; i < 5000; ++i)
        net.tick();
    for (MsgId id : ids)
        EXPECT_TRUE(net.isDelivered(id)) << "message " << id;
}

TEST(NetworkBasic, NetworkQuiescesAfterDelivery)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    net.sendMessage(0, 15, 8);
    net.sendMessage(3, 12, 8);
    for (Cycle i = 0; i < 2000; ++i)
        net.tick();
    EXPECT_TRUE(net.quiescent());
    EXPECT_FALSE(net.deadlocked());
}

TEST(NetworkBasic, StatsCountFlitsConsistently)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    net.sendMessage(0, 5, 8);
    for (Cycle i = 0; i < 1000; ++i)
        net.tick();
    const NetworkStats& s = net.stats();
    EXPECT_EQ(s.messagesDelivered.value(), 1u);
    // Every injected flit is eventually consumed (no kills here).
    EXPECT_EQ(s.flitsInjected.value(), s.flitsConsumed.value());
    EXPECT_EQ(s.sourceKills.value(), 0u);
    EXPECT_EQ(s.corruptedDeliveries.value(), 0u);
}

TEST(NetworkBasic, OccupancyDumpRendersGrid)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    net.setTrafficEnabled(false);
    net.sendMessage(0, 5, 8);
    net.run(3);  // A few flits in flight.
    std::ostringstream os;
    net.dumpOccupancy(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("buffer occupancy"), std::string::npos);
    EXPECT_NE(s.find("y= 0"), std::string::npos);
    EXPECT_NE(s.find("y= 3"), std::string::npos);
}

TEST(NetworkBasic, SelfTrafficIsRejected)
{
    SimConfig cfg = smallTorusCr();
    Network net(cfg);
    EXPECT_DEATH(net.sendMessage(2, 2, 8), "self-traffic");
}

TEST(NetworkBasic, EmptyPayloadIsRejected)
{
    // Under protocol=none an empty worm is a lone head with no tail:
    // it would hold its injector slot and destination forever.
    SimConfig cfg = smallTorusCr();
    cfg.protocol = ProtocolKind::None;
    Network net(cfg);
    EXPECT_DEATH(net.sendMessage(0, 5, 0), "payload_len must be >= 1");
}

TEST(NetworkBasic, UniformTrafficRunDrains)
{
    SimConfig cfg = smallTorusCr();
    cfg.injectionRate = 0.1;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 500;
    Network net(cfg);
    net.run(200);
    net.setMeasuring(true);
    net.run(500);
    net.setMeasuring(false);
    Cycle spent = 0;
    while (!net.measuredDrained() && spent < 20000) {
        net.tick();
        ++spent;
    }
    EXPECT_TRUE(net.measuredDrained());
    EXPECT_GT(net.stats().measuredDelivered.value(), 0u);
    EXPECT_EQ(net.stats().orderViolations.value(), 0u);
    EXPECT_EQ(net.stats().duplicateDeliveries.value(), 0u);
}

} // namespace
} // namespace crnet
