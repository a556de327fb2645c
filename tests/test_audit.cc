/**
 * @file
 * Tests for the invariant-audit engine.
 *
 * Two layers: direct Auditor tests feed hand-built event streams and
 * assert that every invariant class actually panics on a violation
 * (death tests — no vacuous checks), and integration tests prove the
 * hooks are wired through the real Network/Router components.
 *
 * Only compiled when the CRNET_AUDIT CMake option is on (the tests
 * target links against a library whose hooks would otherwise be
 * no-ops).
 */

#include <gtest/gtest.h>

#include "src/core/network.hh"
#include "src/nic/padding.hh"
#include "src/sim/audit.hh"
#include "src/topology/topology.hh"

namespace crnet {
namespace {

SimConfig
auditConfig()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.injectionRate = 0.0;
    cfg.auditInterval = 1;
    cfg.seed = 7;
    return cfg;
}

Flit
dataFlit(FlitType type, MsgId msg, std::uint32_t seq,
         std::uint32_t payload_len)
{
    Flit f;
    f.type = type;
    f.msg = msg;
    f.seq = seq;
    f.payloadLen = payload_len;
    return f;
}

/** Auditor plus the topology it borrows (keeps lifetimes simple). */
struct Harness
{
    explicit Harness(const SimConfig& c)
        : cfg(c), topo(makeTopology(c)), audit(cfg, *topo)
    {
    }

    // Node 0, port 0, VC 0. A Flit's header rides along only when the
    // flit is a head, as on the engine's wire path.
    void channelFlit(const Flit& f)
    {
        audit.onChannelFlit(0, 0, 0, f, f.header());
    }
    void ejectionFlit(const Flit& f)
    {
        audit.onEjectionFlit(0, 0, 0, f, f.header());
    }
    void injectFlit(const Flit& f)
    {
        audit.onFlitInjected(0, f, f.header());
    }
    void consumeFlit(const Flit& f)
    {
        audit.onFlitConsumed(0, f, f.header());
    }

    SimConfig cfg;
    std::unique_ptr<Topology> topo;
    Auditor audit;
};

// --- Invariant 1: per-channel worm framing --------------------------

TEST(AuditDeath, SequenceGapPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Body, 1, 2, 4)),
                 "audit: sequence gap");
}

TEST(AuditDeath, FlitAfterTailPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 2));
    h.channelFlit(dataFlit(FlitType::Body, 1, 1, 2));
    h.channelFlit(dataFlit(FlitType::Tail, 1, 2, 2));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Body, 1, 3, 2)),
                 "audit: .* without a header");
}

TEST(AuditDeath, InterleavedHeaderPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Head, 2, 0, 4)),
                 "audit: header of msg 2 interleaved");
}

TEST(AuditDeath, InterleavedBodyPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Body, 9, 1, 4)),
                 "audit: interleaved worms");
}

TEST(AuditDeath, HeaderWithNonZeroSeqPanics)
{
    Harness h(auditConfig());
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Head, 1, 3, 4)),
                 "must be 0");
}

TEST(AuditDeath, BodyFlitPastPayloadPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 2));
    h.channelFlit(dataFlit(FlitType::Body, 1, 1, 2));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Body, 1, 2, 2)),
                 "audit: body flit past the payload");
}

TEST(AuditDeath, TailInsidePayloadPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Tail, 1, 1, 4)),
                 "audit: tail flit inside the payload");
}

TEST(AuditDeath, EjectionChannelIsCheckedToo)
{
    Harness h(auditConfig());
    EXPECT_DEATH(h.ejectionFlit(dataFlit(FlitType::Body, 5, 1, 4)),
                 "audit: ejection flit .* without a header");
}

TEST(AuditDeath, HeadWithoutWormHeaderPanics)
{
    Harness h(auditConfig());
    const Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    EXPECT_DEATH(h.audit.onChannelFlit(0, 0, 0, f, nullptr),
                 "audit: head flit of msg 1 .* without its worm header");
}

TEST(AuditDeath, BodyCarryingWormHeaderPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    const Flit f = dataFlit(FlitType::Body, 1, 1, 4);
    EXPECT_DEATH(h.audit.onChannelFlit(0, 0, 0, f, &f),
                 "audit: non-head flit of msg 1 .* carrying a worm header");
}

// --- Kill-token legality --------------------------------------------

TEST(AuditDeath, KillOnVirginChannelPanics)
{
    Harness h(auditConfig());
    Flit kill = dataFlit(FlitType::Kill, 7, 0, 0);
    EXPECT_DEATH(h.channelFlit(kill),
                 "audit: kill token .* never carried its worm");
}

TEST(AuditDeath, KillForForeignWormPanics)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    EXPECT_DEATH(h.channelFlit(dataFlit(FlitType::Kill, 2, 0, 0)),
                 "audit: kill token for msg 2 .* occupied by msg 1");
}

TEST(Audit, KillChasingItsOwnWormIsLegal)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    h.channelFlit(dataFlit(FlitType::Kill, 1, 0, 0));
    // The channel is free again afterwards.
    h.channelFlit(dataFlit(FlitType::Head, 2, 0, 4));
}

TEST(Audit, IssuedKillMayOverrunItsWormByOneHop)
{
    // A kill can reach a channel its worm's header never traversed
    // (the header was purged from the upstream buffer first). That is
    // legal only for registered kill tokens.
    Harness h(auditConfig());
    h.audit.onKillIssued(3, 0);
    h.channelFlit(dataFlit(FlitType::Kill, 3, 0, 0));
}

TEST(Audit, StragglerOfPurgedWormIsLegal)
{
    Harness h(auditConfig());
    h.channelFlit(dataFlit(FlitType::Head, 1, 0, 4));
    h.audit.onChannelReset(0, 0, 0, 1);
    // One in-flight flit of the purged worm may still arrive.
    h.channelFlit(dataFlit(FlitType::Body, 1, 1, 4));
}

// --- Invariant 4: CR/FCR padding ------------------------------------

TEST(AuditDeath, CrPaddingViolationPanics)
{
    Harness h(auditConfig());
    // 3 hops minimum on the 4x4 torus from 0 to 10; a wire length of
    // 4 is far below the path flit capacity.
    EXPECT_DEATH(h.audit.onWormStart(0, 10, 4, 3),
                 "audit: CR padding violation");
}

TEST(AuditDeath, FcrPaddingViolationPanics)
{
    SimConfig cfg = auditConfig();
    cfg.protocol = ProtocolKind::Fcr;
    Harness h(cfg);
    const std::uint32_t capacity = pathFlitCapacity(
        h.topo->distance(0, 10), cfg.bufferDepth, cfg.channelLatency);
    // Enough for CR (one capacity) but not for FCR's round trip.
    EXPECT_DEATH(h.audit.onWormStart(0, 10, capacity, 8),
                 "audit: FCR padding violation");
}

TEST(AuditDeath, WireShorterThanPayloadPanics)
{
    Harness h(auditConfig());
    EXPECT_DEATH(h.audit.onWormStart(0, 1, 4, 4),
                 "cannot carry payload");
}

TEST(Audit, ProperlyPaddedWormPasses)
{
    Harness h(auditConfig());
    const SimConfig& cfg = h.cfg;
    const std::uint32_t hops = h.topo->distance(0, 10);
    const std::uint32_t wire =
        wireLength(cfg.protocol, 4, hops, cfg.bufferDepth,
                   cfg.padSlack, cfg.channelLatency);
    h.audit.onWormStart(0, 10, wire, 4);
}

// --- Invariant 5: timestamps ----------------------------------------

TEST(AuditDeath, CreatedAfterInjectionPanics)
{
    Harness h(auditConfig());
    Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    f.createdAt = 100;
    f.headInjectedAt = 50;
    EXPECT_DEATH(h.channelFlit(f),
                 "audit: non-monotonic timestamps");
}

TEST(AuditDeath, InjectionInTheFuturePanics)
{
    Harness h(auditConfig());
    h.audit.beginCycle(10);
    Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    f.headInjectedAt = 99;  // Claims a cycle that has not happened.
    EXPECT_DEATH(h.channelFlit(f),
                 "audit: non-monotonic timestamps");
}

// --- Invariant 2: flit conservation ---------------------------------

TEST(AuditDeath, LeakedFlitBreaksConservation)
{
    Harness h(auditConfig());
    Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    h.injectFlit(f);
    // The snapshot says the flit is nowhere: not buffered, not in
    // flight, and it was never consumed or purged. It leaked.
    AuditSnapshot snap;
    snap.now = 1;
    EXPECT_DEATH(h.audit.sweep(snap),
                 "audit: flit conservation violated");
}

TEST(AuditDeath, DuplicatedFlitBreaksConservation)
{
    Harness h(auditConfig());
    Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    h.injectFlit(f);
    AuditSnapshot snap;
    snap.now = 1;
    snap.bufferedFlits = 2;  // One flit injected, two accounted.
    EXPECT_DEATH(h.audit.sweep(snap),
                 "audit: flit conservation violated");
}

TEST(Audit, BalancedLedgerSweepPasses)
{
    Harness h(auditConfig());
    Flit f = dataFlit(FlitType::Head, 1, 0, 4);
    h.injectFlit(f);
    h.consumeFlit(f);
    AuditSnapshot snap;
    snap.now = 1;
    h.audit.sweep(snap);
    EXPECT_EQ(h.audit.injected(), 1u);
    EXPECT_EQ(h.audit.consumed(), 1u);
    EXPECT_EQ(h.audit.sweepsRun(), 1u);
}

// --- Invariant 3: credit ledgers ------------------------------------

TEST(AuditDeath, CreditLedgerMismatchPanics)
{
    Harness h(auditConfig());
    AuditSnapshot snap;
    snap.now = 1;
    AuditEdge e;
    e.kind = AuditEdgeKind::Network;
    e.node = 3;
    e.port = 1;
    e.vc = 0;
    e.credits = h.cfg.bufferDepth;  // Full credits...
    e.occupancy = 1;                // ...while a flit sits downstream.
    snap.edges.push_back(e);
    EXPECT_DEATH(h.audit.sweep(snap),
                 "audit: credit ledger broken");
}

TEST(Audit, QuarantinedEdgeIsSkipped)
{
    Harness h(auditConfig());
    AuditSnapshot snap;
    snap.now = 1;
    AuditEdge e;
    e.credits = h.cfg.bufferDepth;
    e.occupancy = 1;
    e.skip = true;  // Kill quarantine: ledger legitimately in flux.
    snap.edges.push_back(e);
    h.audit.sweep(snap);
    EXPECT_EQ(h.audit.sweepsRun(), 1u);
}

// --- Integration: hooks wired through real components ----------------

TEST(AuditIntegration, NetworkRunsCleanUnderEveryCycleAudit)
{
    SimConfig cfg = auditConfig();
    cfg.injectionRate = 0.2;
    cfg.timeout = 16;
    Network net(cfg);
    ASSERT_NE(net.auditor(), nullptr);
    net.run(3000);
    net.setTrafficEnabled(false);
    net.run(2000);

    const Auditor& a = *net.auditor();
    // The audit actually ran: per-flit checks and sweeps both fired.
    EXPECT_GT(a.flitChecks(), 0u);
    EXPECT_GT(a.sweepsRun(), 0u);
    EXPECT_GT(a.injected(), 0u);
    // Quiescent network: every injected flit was consumed or purged.
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(a.injected(), a.consumed() + a.purged());
}

TEST(AuditIntegration, CorruptedRouterStateTripsTheAudit)
{
    SimConfig cfg = auditConfig();
    Network net(cfg);
    // Inject a worm so real traffic flows through the hooks.
    net.sendMessage(0, 5, 4);
    net.run(50);
    // Now hand the router a flit that no injector produced: a body
    // flit for a message whose header never existed. The router-level
    // hook must catch the corruption immediately.
    Flit rogue = dataFlit(FlitType::Body, 4242, 1, 4);
    EXPECT_DEATH(net.router(1).acceptFlit(0, 0, rogue), "audit:");
}

TEST(AuditIntegration, FcrNetworkRunsCleanUnderAudit)
{
    SimConfig cfg = auditConfig();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.timeout = 64;
    cfg.injectionRate = 0.1;
    cfg.transientFaultRate = 0.0005;
    Network net(cfg);
    net.run(3000);
    EXPECT_GT(net.auditor()->flitChecks(), 0u);
    EXPECT_GT(net.auditor()->sweepsRun(), 0u);
}

} // namespace
} // namespace crnet
