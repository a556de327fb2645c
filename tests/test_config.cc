/**
 * @file
 * Unit tests for SimConfig parsing, validation and round trips.
 */

#include <gtest/gtest.h>

#include "src/sim/config.hh"

namespace crnet {
namespace {

TEST(Config, DefaultsValidate)
{
    SimConfig cfg;
    cfg.validate();  // Must not call fatal().
    EXPECT_EQ(cfg.numNodes(), 256u);  // 16-ary 2-cube.
}

TEST(Config, NumNodesScales)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 3;
    EXPECT_EQ(cfg.numNodes(), 64u);
}

TEST(Config, SetParsesEveryScalarKind)
{
    SimConfig cfg;
    cfg.set("k", "8").set("n", "3").set("vcs", "4")
        .set("buffer_depth", "4").set("load", "0.25")
        .set("msg_len", "32").set("timeout", "64").set("seed", "77")
        .set("pattern", "transpose").set("routing", "duato")
        .set("protocol", "fcr").set("topology", "mesh")
        .set("timeout_scheme", "path_wide").set("backoff", "static")
        .set("fault_rate", "0.001");
    EXPECT_EQ(cfg.radixK, 8u);
    EXPECT_EQ(cfg.dimensionsN, 3u);
    EXPECT_EQ(cfg.numVcs, 4u);
    EXPECT_EQ(cfg.bufferDepth, 4u);
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.25);
    EXPECT_EQ(cfg.messageLength, 32u);
    EXPECT_EQ(cfg.timeout, 64u);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_EQ(cfg.pattern, TrafficPattern::Transpose);
    EXPECT_EQ(cfg.routing, RoutingKind::Duato);
    EXPECT_EQ(cfg.protocol, ProtocolKind::Fcr);
    EXPECT_EQ(cfg.topology, TopologyKind::Mesh);
    EXPECT_EQ(cfg.timeoutScheme, TimeoutScheme::PathWide);
    EXPECT_EQ(cfg.backoff, BackoffScheme::Static);
    EXPECT_DOUBLE_EQ(cfg.transientFaultRate, 0.001);
}

TEST(Config, UnknownKeyIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.set("nonsense", "1"), "unknown config key");
}

TEST(Config, BadNumberIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.set("k", "abc"), "expected integer");
    // A sign is not a digit: "-1" must not wrap to 2^64 - 1.
    EXPECT_DEATH(cfg.set("warmup", "-1"), "expected integer");
    EXPECT_DEATH(cfg.set("load", "xyz"), "expected number");
}

TEST(Config, TurnModelOnTorusRejected)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::WestFirst;
    EXPECT_DEATH(cfg.validate(), "deadlock-free only on meshes");
}

TEST(Config, DorTorusWithoutVcsAndWithoutCrRejected)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::DimensionOrder;
    cfg.protocol = ProtocolKind::None;
    cfg.numVcs = 1;
    EXPECT_DEATH(cfg.validate(), "dateline");
}

TEST(Config, DorTorusSingleVcUnderCrAccepted)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::DimensionOrder;
    cfg.protocol = ProtocolKind::Cr;
    cfg.numVcs = 1;
    cfg.validate();
}

TEST(Config, DuatoNeedsEscapePlusAdaptive)
{
    SimConfig cfg;
    cfg.routing = RoutingKind::Duato;
    cfg.numVcs = 2;  // Torus needs 3.
    EXPECT_DEATH(cfg.validate(), "Duato");
    cfg.numVcs = 3;
    cfg.validate();
    cfg.topology = TopologyKind::Mesh;
    cfg.numVcs = 2;  // Mesh: 1 escape + 1 adaptive.
    cfg.validate();
}

TEST(Config, InjectionPortsBeyondArbiterMaskRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 2;
    cfg.injectionChannels = 60;  // 4 + 60 = 64 input ports: the limit.
    cfg.validate();
    cfg.injectionChannels = 61;
    EXPECT_DEATH(cfg.validate(), "injectionChannels must be <= 64");
}

TEST(Config, EjectionPortsBeyondArbiterMaskRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 8;
    cfg.ejectionChannels = 48;  // 16 + 48 = 64 output ports: the limit.
    cfg.validate();
    cfg.ejectionChannels = 49;
    EXPECT_DEATH(cfg.validate(), "ejectionChannels must be <= 64");
}

TEST(Config, InputVcsBeyondLiveVcMasksRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 3;
    cfg.injectionChannels = 2;
    cfg.numVcs = 8;  // (6 + 2) * 8 = 64 input VCs: the limit.
    cfg.validate();
    cfg.numVcs = 9;  // 72.
    EXPECT_DEATH(cfg.validate(), "must be <= 64 router input VCs");
    cfg.numVcs = 8;
    cfg.injectionChannels = 3;  // 9 * 8 = 72.
    EXPECT_DEATH(cfg.validate(), "must be <= 64 router input VCs");
}

TEST(Config, FcrWithDropAtBlockRejected)
{
    SimConfig cfg;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.timeoutScheme = TimeoutScheme::DropAtBlock;
    EXPECT_DEATH(cfg.validate(), "refused worm would hold its path");
    cfg.protocol = ProtocolKind::Cr;
    cfg.validate();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.validate();
}

TEST(Config, ApplyArgsParsesArgv)
{
    SimConfig cfg;
    const char* argv_c[] = {"prog", "k=4", "load=0.3"};
    cfg.applyArgs(3, const_cast<char**>(argv_c));
    EXPECT_EQ(cfg.radixK, 4u);
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.3);
}

TEST(Config, EnumStringRoundTrips)
{
    for (auto k : {RoutingKind::DimensionOrder,
                   RoutingKind::MinimalAdaptive, RoutingKind::Duato,
                   RoutingKind::WestFirst, RoutingKind::NegativeFirst,
                   RoutingKind::PlanarAdaptive})
        EXPECT_EQ(routingFromString(toString(k)), k);
    for (auto k : {ProtocolKind::None, ProtocolKind::Cr,
                   ProtocolKind::Fcr})
        EXPECT_EQ(protocolFromString(toString(k)), k);
    for (auto k : {TrafficPattern::Uniform,
                   TrafficPattern::BitComplement,
                   TrafficPattern::Transpose,
                   TrafficPattern::BitReversal, TrafficPattern::Hotspot,
                   TrafficPattern::Neighbor, TrafficPattern::Tornado})
        EXPECT_EQ(patternFromString(toString(k)), k);
    for (auto k : {TimeoutScheme::SourceStall, TimeoutScheme::SourceImin,
                   TimeoutScheme::PathWide, TimeoutScheme::DropAtBlock})
        EXPECT_EQ(timeoutSchemeFromString(toString(k)), k);
}

TEST(Config, SummaryMentionsKeyFields)
{
    SimConfig cfg;
    const std::string s = cfg.summary();
    EXPECT_NE(s.find("torus"), std::string::npos);
    EXPECT_NE(s.find("cr"), std::string::npos);
}

} // namespace
} // namespace crnet
