/**
 * @file
 * Regression tests for the determinism fixes found by crnet-analyze
 * (tools/crnet_analyze.py): results that fold over formerly
 * hash-ordered containers must be byte-for-byte independent of the
 * container's bucket layout.
 *
 * The mechanism under test is deterministic *ordering* — keyed tables
 * are ordered containers, so every result-affecting consumer walks
 * them in key order — so the tests drive the orderings directly:
 * ledgers populated in adversarial insertion orders must produce
 * bit-identical folds, assembly probes must come out in MsgId order,
 * and the forensics report must be byte-stable across independently
 * constructed networks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/core/network.hh"
#include "src/fault/campaign.hh"

namespace crnet {
namespace {

PendingMessage
pending(MsgId id, NodeId src, NodeId dst, Cycle created)
{
    PendingMessage m;
    m.id = id;
    m.src = src;
    m.dst = dst;
    m.createdAt = created;
    m.measured = true;
    return m;
}

DeliveredMessage
delivered(MsgId id, Cycle at, std::uint16_t attempts)
{
    DeliveredMessage m;
    m.id = id;
    m.deliveredAt = at;
    m.attempts = attempts;
    return m;
}

/** Fold the latency transient exactly the way runTrial does. */
double
latencyFold(const DeliveryLedger& ledger)
{
    double sum = 0.0;
    for (const auto& entry : ledger.entries()) {
        const LedgerEntry& e = entry.second;
        if (e.fate == MessageFate::Delivered)
            sum += static_cast<double>(e.resolvedAt - e.createdAt);
    }
    return sum;
}

// entries() must iterate ascending MsgIds no matter the insertion
// order.
TEST(Determinism, SortedEntriesAscendingRegardlessOfInsertion)
{
    // Adversarial id set: large, non-contiguous, inserted forward in
    // one ledger and reversed in the other.
    std::vector<MsgId> ids;
    for (MsgId i = 0; i < 200; ++i)
        ids.push_back(1 + i * 7919);

    DeliveryLedger fwd, rev;
    for (std::size_t i = 0; i < ids.size(); ++i)
        fwd.onAccepted(pending(ids[i], 0, 1, 10 + ids[i] % 97));
    for (std::size_t i = ids.size(); i-- > 0;)
        rev.onAccepted(pending(ids[i], 0, 1, 10 + ids[i] % 97));

    const auto& a = fwd.entries();
    const auto& b = rev.entries();
    ASSERT_EQ(a.size(), ids.size());
    ASSERT_EQ(b.size(), ids.size());
    EXPECT_TRUE(std::is_sorted(
        a.begin(), a.end(), [](const auto& x, const auto& y) {
            return x.first < y.first;
        }));
    for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
        EXPECT_EQ(x->first, y->first);
        EXPECT_EQ(x->second.createdAt, y->second.createdAt);
    }
}

// The float fold feeding preFaultLatency/postFaultLatency must be
// bit-identical across insertion orders: float addition is not
// associative, so this only holds because the fold runs in MsgId
// order, which is exactly what the fix pinned.
TEST(Determinism, LatencyTransientBitIdenticalAcrossInsertionOrder)
{
    std::vector<MsgId> ids;
    for (MsgId i = 0; i < 300; ++i)
        ids.push_back(3 + i * 104729);

    DeliveryLedger fwd, rev;
    auto populate = [&](DeliveryLedger& ledger,
                        const std::vector<MsgId>& order) {
        for (const MsgId id : order)
            ledger.onAccepted(pending(id, 0, 1, id % 1009));
        for (const MsgId id : order) {
            // Latencies with enough float texture that a reordered
            // sum actually differs in the low mantissa bits.
            ledger.onDelivered(delivered(
                id, id % 1009 + 3 + (id % 13) * 101, 1));
        }
    };
    std::vector<MsgId> reversed(ids.rbegin(), ids.rend());
    populate(fwd, ids);
    populate(rev, reversed);

    const double sum_fwd = latencyFold(fwd);
    const double sum_rev = latencyFold(rev);
    // Bitwise, not EXPECT_DOUBLE_EQ: the contract is byte-for-byte.
    EXPECT_EQ(0, std::memcmp(&sum_fwd, &sum_rev, sizeof(double)));
}

// Assembly probes (the forensics input) must come out in MsgId order.
TEST(Determinism, OpenAssembliesSortedByMsgId)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.25;
    cfg.messageLength = 12;
    cfg.seed = 99;

    Network net(cfg);
    bool sawProbe = false;
    for (Cycle c = 0; c < 400; ++c) {
        net.run(1);
        for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
            const auto probes = net.receiver(n).openAssemblies();
            sawProbe = sawProbe || !probes.empty();
            EXPECT_TRUE(std::is_sorted(
                probes.begin(), probes.end(),
                [](const Receiver::AssemblyProbe& a,
                   const Receiver::AssemblyProbe& b) {
                    return a.msg < b.msg;
                }));
        }
    }
    // Long messages at 25% load on a 16-node torus always leave
    // assemblies open mid-run; if not, the test checked nothing.
    EXPECT_TRUE(sawProbe);
}

// The forensics report of two independently constructed, identically
// seeded networks must match byte for byte — unordered containers
// are built up in identical insertion order here, but the report
// must not leak their iteration order either.
TEST(Determinism, ForensicsReportByteStable)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.30;
    cfg.messageLength = 12;
    cfg.timeout = 32;
    cfg.maxRetries = 0;
    cfg.misrouteAfterRetries = 1;
    cfg.misrouteBudget = 4;
    cfg.dynamicLinkKills = 1;
    cfg.seed = 4242;

    auto report = [&]() {
        Network net(cfg);
        net.run(500);
        std::ostringstream os;
        net.dumpForensics(os);
        return os.str();
    };
    const std::string a = report();
    const std::string b = report();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// Campaign trial outcomes (including the float transient fields) must
// replay bit-identically for the same seed base.
TEST(Determinism, CampaignTrialOutcomesReplayBitIdentical)
{
    CampaignConfig cc;
    cc.base.topology = TopologyKind::Torus;
    cc.base.radixK = 4;
    cc.base.dimensionsN = 2;
    cc.base.numVcs = 2;
    cc.base.bufferDepth = 2;
    cc.base.routing = RoutingKind::MinimalAdaptive;
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.injectionRate = 0.10;
    cc.base.messageLength = 8;
    cc.base.timeout = 32;
    cc.base.maxRetries = 0;
    cc.base.misrouteAfterRetries = 1;
    cc.base.misrouteBudget = 4;
    cc.base.warmupCycles = 200;
    cc.base.measureCycles = 600;
    cc.base.dynamicLinkKills = 1;
    cc.trials = 3;
    cc.seedBase = 777;

    std::vector<TrialOutcome> first, second;
    runCampaign(cc, &first);
    runCampaign(cc, &second);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const TrialOutcome& x = first[i];
        const TrialOutcome& y = second[i];
        EXPECT_EQ(x.accepted, y.accepted);
        EXPECT_EQ(x.delivered, y.delivered);
        EXPECT_EQ(x.refused, y.refused);
        EXPECT_EQ(x.cyclesRun, y.cyclesRun);
        // The doubles byte-for-byte, not approximately.
        EXPECT_EQ(0, std::memcmp(&x.preFaultLatency,
                                 &y.preFaultLatency, sizeof(double)));
        EXPECT_EQ(0, std::memcmp(&x.postFaultLatency,
                                 &y.postFaultLatency, sizeof(double)));
        EXPECT_EQ(x.recoveryCycles, y.recoveryCycles);
    }
}

} // namespace
} // namespace crnet
