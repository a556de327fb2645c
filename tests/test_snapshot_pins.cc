/**
 * @file
 * Pinned snapshot and journal bytes. Round trips pass even when
 * capture and restore change the layout together, so these tests pin
 * the serialized bytes themselves: the length and CRC-32 of snapshot
 * payloads captured at fixed cycles, and of a campaign journal.
 * Snapshots live in memory only, so a change that moves a payload pin
 * refreshes it from the failure message and says why in the change
 * log. Journals persist on disk: a change that moves the journal pin
 * changes the journal format, so it also bumps kJournalVersion and
 * notes it in docs/ROBUSTNESS.md.
 * The pins hold the audit-on bytes (the audit mirror is part of the
 * payload and the audit bit is part of every fingerprint), so an
 * audit-off build skips them. The tests use only the public capture
 * and campaign API, so they build against any version of the
 * serialization code.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/sim/audit.hh"
#include "src/sim/checksum.hh"
#include "src/sim/config.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"

namespace crnet {
namespace {

struct Pin
{
    std::size_t size;
    std::uint32_t crc;
};

constexpr const char* kAuditOff =
    "the pins hold the audit-on bytes; this build compiles the audit out";

void
expectPinned(const std::vector<std::uint8_t>& bytes, const Pin& pin,
             const std::string& what)
{
    const std::uint32_t crc = crc32(bytes.data(), bytes.size());
    EXPECT_TRUE(bytes.size() == pin.size && crc == pin.crc)
        << what << ": " << bytes.size() << " bytes, CRC-32 0x"
        << std::hex << crc << std::dec << "; pinned " << pin.size
        << " bytes, CRC-32 0x" << std::hex << pin.crc;
}

/**
 * Run `net` to each cycle of `at` in turn and check the payload
 * captured there against its pin.
 */
void
expectPinnedAt(Network& net, const std::vector<Cycle>& at,
               const std::vector<Pin>& pins)
{
    ASSERT_EQ(at.size(), pins.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
        net.run(at[i] - net.now());
        expectPinned(captureSnapshot(net).payload, pins[i],
                     "payload at cycle " + std::to_string(at[i]));
    }
}

TEST(SnapshotPins, CrBaselineNearSaturationWithSidecars)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << kAuditOff;
    // The 8-ary 2-cube CR evaluation baseline near saturation, with
    // the heatmap, the time series and a watch-listed trace.
    SimConfig cfg;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.protocol = ProtocolKind::Cr;
    cfg.timeout = 8;
    cfg.messageLength = 16;
    cfg.injectionRate = 0.35;
    cfg.heatmapEnabled = true;
    cfg.sampleInterval = 100;
    cfg.traceFile = testing::TempDir() + "crnet_pin_cr";
    cfg.watchSpec = "3-40,17-9,12";
    cfg.seed = 20260706;
    Network net(cfg);
    expectPinnedAt(net, {250, 600},
                   {{183240, 0x3fa6ab26}, {209745, 0x459d691f}});
    ASSERT_NE(net.tracer(), nullptr);
    EXPECT_FALSE(net.tracer()->events().empty());
}

TEST(SnapshotPins, FcrDeepChannelsWithFaultsAndLedger)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << kAuditOff;
    // FCR on four-cycle channels with path-wide kills, two injection
    // and two ejection channels, transient faults, a corruption burst
    // and dynamic link kills that are repaired, under the delivery
    // ledger. Captured while flits, credits and backward kills are in
    // flight.
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.channelLatency = 4;
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.timeout = 4;
    cfg.injectionChannels = 2;
    cfg.ejectionChannels = 2;
    cfg.injectionRate = 0.2;
    cfg.messageLength = 8;
    cfg.transientFaultRate = 0.001;
    cfg.burstStart = 100;
    cfg.burstLen = 200;
    cfg.burstRate = 0.02;
    cfg.dynamicLinkKills = 2;
    cfg.faultWindowStart = 100;
    cfg.faultWindowEnd = 300;
    cfg.linkRepairAfter = 250;
    cfg.misrouteAfterRetries = 1;
    cfg.sampleInterval = 100;
    cfg.seed = 7;
    Network net(cfg);
    DeliveryLedger ledger;
    net.attachLedger(&ledger);
    expectPinnedAt(net, {300, 710},
                   {{87968, 0x8fd629ba}, {106402, 0xba921263}});
    const Network::WaveCensus c = net.inFlight(0, 16);
    EXPECT_GT(c.flits, 0u);
    EXPECT_GT(c.credits, 0u);
    EXPECT_GT(c.bkills, 0u);
    EXPECT_GT(net.stats().faultEventsApplied.value(), 0u);
    EXPECT_GT(ledger.accepted(), 0u);
}

TEST(SnapshotPins, CrDropAtBlockRouterTimeouts)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << kAuditOff;
    // CR whose routers reject blocked headers (drop_at_block), near
    // saturation on the 8-ary 2-cube with a short timeout and the
    // heatmap on: captured while router-side rejects are under way.
    SimConfig cfg;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.protocol = ProtocolKind::Cr;
    cfg.timeoutScheme = TimeoutScheme::DropAtBlock;
    cfg.timeout = 8;
    cfg.messageLength = 16;
    cfg.injectionRate = 0.4;
    cfg.heatmapEnabled = true;
    cfg.seed = 1994;
    Network net(cfg);
    expectPinnedAt(net, {300, 700},
                   {{183571, 0x6022d4cd}, {206908, 0x45d4fe62}});
    EXPECT_GT(net.stats().router.pathWideKills.value(), 0u);
}

TEST(SnapshotPins, SparseStoragePastFiveHundredTwelveNodes)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << kAuditOff;
    // 576 nodes. The name recalls the sparse storage the generator's
    // pair sequences and the receivers' last-sequence tables used
    // past 512 nodes; they are one ordered table at every size.
    SimConfig cfg;
    cfg.radixK = 24;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.timeout = 16;
    cfg.injectionRate = 0.1;
    cfg.messageLength = 8;
    cfg.seed = 1994;
    Network net(cfg);
    expectPinnedAt(net, {200}, {{1349076, 0x375470bb}});
}

TEST(SnapshotPins, CampaignJournal)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << kAuditOff;
    // Two FCR trials on a 4-ary 2-cube with one dynamic link kill each.
    CampaignConfig cc;
    cc.base.radixK = 4;
    cc.base.dimensionsN = 2;
    cc.base.numVcs = 2;
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.injectionRate = 0.2;
    cc.base.messageLength = 8;
    cc.base.timeout = 16;
    cc.base.warmupCycles = 100;
    cc.base.measureCycles = 300;
    cc.base.dynamicLinkKills = 1;
    cc.base.misrouteAfterRetries = 1;
    cc.base.transientFaultRate = 0.0005;
    cc.base.sampleInterval = 100;
    cc.base.heatmapEnabled = true;
    cc.base.seed = 99;
    cc.base.jobs = 1;
    cc.trials = 2;
    cc.seedBase = 7;
    cc.journalPath = testing::TempDir() + "crnet_pin_journal.jnl";
    std::remove(cc.journalPath.c_str());
    runCampaign(cc, nullptr);
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(cc.journalPath, bytes), "");
    expectPinned(bytes, {318, 0x2344546d}, "journal");
    std::remove(cc.journalPath.c_str());
}

} // namespace
} // namespace crnet
