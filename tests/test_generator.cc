/**
 * @file
 * Unit tests for the open-loop traffic generator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/traffic/generator.hh"

namespace crnet {
namespace {

SimConfig
genCfg(double load, std::uint32_t len)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.injectionRate = load;
    cfg.messageLength = len;
    return cfg;
}

TEST(Generator, OfferedLoadMatchesConfig)
{
    auto cfg = genCfg(0.25, 16);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(1));
    EXPECT_DOUBLE_EQ(gen.offeredLoad(), 0.25);
}

/**
 * One cycle of arrivals, as Network::generate() draws them: call
 * fn(src) at every node whose arrival fired, in node order.
 */
template <typename Fn>
void
forEachArrival(TrafficGenerator& gen, NodeId nodes, Fn&& fn)
{
    for (NodeId src = gen.scanArrivals(0); src < nodes;
         src = gen.scanArrivals(src + 1))
        fn(src);
}

TEST(Generator, ArrivalRateIsLoadOverLength)
{
    auto cfg = genCfg(0.32, 16);  // P(msg) = 0.02 per node-cycle.
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(2));
    std::vector<int> msgs(16, 0);
    const int cycles = 200000;
    for (int t = 0; t < cycles; ++t)
        forEachArrival(gen, 16, [&](NodeId src) { ++msgs[src]; });
    // Every node draws once per cycle at the configured probability.
    for (NodeId src = 0; src < 16; ++src) {
        EXPECT_NEAR(static_cast<double>(msgs[src]) / cycles, 0.02,
                    0.002)
            << "node " << src;
    }
}

TEST(Generator, MessagesAreWellFormed)
{
    auto cfg = genCfg(0.5, 16);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(3));
    int msgs = 0;
    for (int t = 0; t < 5000; ++t) {
        forEachArrival(gen, 16, [&](NodeId src) {
            const PendingMessage m = gen.makeFor(src, t, true);
            ++msgs;
            EXPECT_EQ(m.src, src);
            EXPECT_NE(m.dst, src);
            EXPECT_LT(m.dst, 16u);
            EXPECT_EQ(m.payloadLen, 16u);
            EXPECT_EQ(m.createdAt, static_cast<Cycle>(t));
            EXPECT_TRUE(m.measured);
            EXPECT_EQ(m.attempt, 0u);
        });
    }
    EXPECT_GT(msgs, 0);
}

TEST(Generator, PairSeqIncreasesPerPair)
{
    auto cfg = genCfg(0.5, 16);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(4));
    const auto a = gen.makeMessage(0, 1, 8, 0, false);
    const auto b = gen.makeMessage(0, 1, 8, 1, false);
    const auto c = gen.makeMessage(0, 2, 8, 2, false);
    EXPECT_EQ(a.pairSeq, 0u);
    EXPECT_EQ(b.pairSeq, 1u);
    EXPECT_EQ(c.pairSeq, 0u);  // Different pair.
}

TEST(Generator, MsgIdsAreUnique)
{
    auto cfg = genCfg(0.5, 16);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(5));
    const auto a = gen.makeMessage(0, 1, 8, 0, false);
    const auto b = gen.makeMessage(2, 3, 8, 0, false);
    EXPECT_NE(a.id, b.id);
    EXPECT_EQ(gen.generatedCount(), 2u);
}

TEST(Generator, BimodalMixesLengths)
{
    auto cfg = genCfg(0.4, 8);
    cfg.messageLengthB = 64;
    cfg.bimodalFracB = 0.25;
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(6));
    int shorts = 0, longs = 0;
    for (int t = 0; t < 400000 && longs + shorts < 2000; ++t) {
        forEachArrival(gen, 16, [&](NodeId src) {
            const PendingMessage m = gen.makeFor(src, t, false);
            if (m.payloadLen == 8)
                ++shorts;
            else if (m.payloadLen == 64)
                ++longs;
            else
                ADD_FAILURE() << "unexpected length " << m.payloadLen;
        });
    }
    const double frac_b =
        static_cast<double>(longs) / (shorts + longs);
    EXPECT_NEAR(frac_b, 0.25, 0.05);
}

TEST(Generator, ExcessiveRateIsFatal)
{
    auto cfg = genCfg(0.9, 8);
    cfg.messageLength = 0;  // Would make P > 1... but len < 2 invalid;
    cfg.messageLength = 2;
    cfg.injectionRate = 2.0 * 2;  // P = 2.
    cfg.injectionChannels = 4;    // Passes validate's rate bound.
    auto topo = makeTopology(cfg);
    EXPECT_DEATH(TrafficGenerator(cfg, *topo, Rng(7)),
                 "exceeds one message per cycle");
}

TEST(Generator, SelfTrafficRequestIsFatal)
{
    auto cfg = genCfg(0.1, 8);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(8));
    EXPECT_DEATH(gen.makeMessage(3, 3, 8, 0, false), "self-traffic");
}

} // namespace
} // namespace crnet
