/**
 * @file
 * Checkpoint/restore tests: the byte-identity guarantee (save →
 * restore → continue matches an uninterrupted run bit for bit, under
 * both schedulers), the on-disk container's corruption handling, the
 * restore-side checks on state that does not fit its target, the
 * campaign journal's crash-resume semantics, and the watchdog's
 * quarantine fate (docs/ROBUSTNESS.md). test_snapshot_pins.cc pins the
 * bytes themselves.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/fault/fault_schedule.hh"
#include "src/sim/audit.hh"
#include "src/sim/checksum.hh"
#include "src/sim/config.hh"
#include "src/sim/snapshot.hh"

namespace crnet {
namespace {

/**
 * A deliberately busy little network: dynamic faults, transient
 * corruption, FCR recovery, time series, heatmap and tracing all on,
 * so the snapshot has to carry every subsystem.
 */
SimConfig
snapConfig(SchedulerKind sched)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.2;
    cfg.messageLength = 8;
    cfg.timeout = 16;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 400;
    cfg.dynamicLinkKills = 1;
    cfg.misrouteAfterRetries = 1;
    cfg.transientFaultRate = 0.0005;
    cfg.sampleInterval = 100;
    cfg.heatmapEnabled = true;
    cfg.sched = sched;
    cfg.seed = 99;
    return cfg;
}

/**
 * Drive `pre` cycles (measuring from cycle 100), optionally hop the
 * state through a snapshot into a fresh network, then drive the same
 * `post` schedule; return the final full-state payload.
 */
std::vector<std::uint8_t>
endState(const SimConfig& cfg, bool via_restore)
{
    Network a(cfg);
    a.setMeasuring(false);
    a.run(100);
    a.setMeasuring(true);
    a.run(200);  // Snapshot lands mid-measurement, faults in flight.

    Network* cont = &a;
    Network b(cfg);
    if (via_restore) {
        const Snapshot mid = captureSnapshot(a);
        EXPECT_EQ(restoreSnapshot(b, mid), "");
        EXPECT_EQ(b.now(), a.now());
        cont = &b;
    }
    cont->run(200);
    cont->setMeasuring(false);
    cont->setTrafficEnabled(false);
    cont->run(300);
    return captureSnapshot(*cont).payload;
}

TEST(SnapshotIdentity, RestoredRunMatchesUninterruptedActive)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    const auto straight = endState(cfg, false);
    const auto hopped = endState(cfg, true);
    ASSERT_EQ(straight.size(), hopped.size());
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, RestoredRunMatchesUninterruptedSweep)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Sweep);
    const auto straight = endState(cfg, false);
    const auto hopped = endState(cfg, true);
    ASSERT_EQ(straight.size(), hopped.size());
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, RestoredRunMatchesUninterruptedAt576Nodes)
{
    // A 24-ary 2-cube: the generator's and receivers' keyed tables
    // restore past 512 nodes too.
    SimConfig cfg = snapConfig(SchedulerKind::Active);
    cfg.radixK = 24;
    const auto straight = endState(cfg, false);
    const auto hopped = endState(cfg, true);
    ASSERT_EQ(straight.size(), hopped.size());
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, SnapshotRestoresAcrossSchedulers)
{
    // The config fingerprint excludes `sched`: a snapshot captured
    // under one scheduler restores under the other and the
    // continuation is observably identical — the serialized wake
    // flags carry over as a safe superset. (The raw payload bytes of
    // the continuations may differ — flags and deadline slots
    // converge lazily — so this compares observable output, not
    // state bytes.)
    auto captureUnder = [](SchedulerKind k) {
        Network warm(snapConfig(k));
        warm.setMeasuring(false);
        warm.run(300);
        return captureSnapshot(warm);
    };
    auto continueUnder = [](SchedulerKind k, const Snapshot& snap) {
        Network net(snapConfig(k));
        EXPECT_EQ(restoreSnapshot(net, snap), "");
        net.run(500);
        return net.timeseriesSamples();
    };

    const Snapshot fromSweep = captureUnder(SchedulerKind::Sweep);
    const auto sweepSweep =
        continueUnder(SchedulerKind::Sweep, fromSweep);
    ASSERT_FALSE(sweepSweep.empty());
    EXPECT_EQ(continueUnder(SchedulerKind::Active, fromSweep),
              sweepSweep);

    const Snapshot fromActive = captureUnder(SchedulerKind::Active);
    const auto activeActive =
        continueUnder(SchedulerKind::Active, fromActive);
    ASSERT_FALSE(activeActive.empty());
    EXPECT_EQ(continueUnder(SchedulerKind::Sweep, fromActive),
              activeActive);
}

TEST(SnapshotIdentity, TracedRunSurvivesRestore)
{
    // With a tracer attached the event list itself is part of the
    // state: the restored network's trace must contain the pre-hop
    // events, not start empty.
    SimConfig cfg = snapConfig(SchedulerKind::Active);
    cfg.traceFile = testing::TempDir() + "crnet_snap_trace_a";
    const auto straight = endState(cfg, false);
    cfg.traceFile = testing::TempDir() + "crnet_snap_trace_b";
    const auto hopped = endState(cfg, true);
    EXPECT_TRUE(straight == hopped);
}

TEST(Snapshot, RefusesMismatchedConfig)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    Network a(cfg);
    a.run(50);
    const Snapshot snap = captureSnapshot(a);

    SimConfig other = cfg;
    other.injectionRate = 0.25;
    Network b(other);
    const std::string err = restoreSnapshot(b, snap);
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    EXPECT_EQ(b.now(), 0u);  // Refusal leaves the target untouched.
}

// --- On-disk container --------------------------------------------------

class SnapshotFile : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_ = snapConfig(SchedulerKind::Active);
        Network net(cfg_);
        net.run(120);
        snap_ = captureSnapshot(net);
        // Unique per test case: ctest runs the cases as parallel
        // processes, and a shared path lets one case's corrupted
        // rewrite race another's read.
        path_ = testing::TempDir() + "crnet_snapshot_" +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
        ASSERT_EQ(writeSnapshotFile(path_, snap_), "");
        ASSERT_EQ(readFileBytes(path_, file_), "");
    }

    /** Rewrite the file with `bytes`, fixing up the CRC trailer. */
    void
    rewriteWithValidCrc(std::vector<std::uint8_t> bytes)
    {
        const std::size_t body = bytes.size() - 4;
        const std::uint32_t crc = crc32(bytes.data(), body);
        for (int i = 0; i < 4; ++i)
            bytes[body + i] =
                static_cast<std::uint8_t>(crc >> (8 * i));
        ASSERT_EQ(atomicWriteFile(path_, bytes), "");
    }

    SimConfig cfg_;
    Snapshot snap_;
    std::string path_;
    std::vector<std::uint8_t> file_;
};

TEST_F(SnapshotFile, RoundTripsExactly)
{
    Snapshot back;
    ASSERT_EQ(readSnapshotFile(path_, back), "");
    EXPECT_EQ(back.at, snap_.at);
    EXPECT_EQ(back.fingerprint, snap_.fingerprint);
    EXPECT_TRUE(back.payload == snap_.payload);

    // And the bytes are live: restore + run works.
    Network net(cfg_);
    ASSERT_EQ(restoreSnapshot(net, back), "");
    net.run(50);
    EXPECT_EQ(net.now(), 170u);
}

TEST_F(SnapshotFile, DetectsFlippedPayloadByte)
{
    std::vector<std::uint8_t> bad = file_;
    bad[bad.size() / 2] ^= 0x40;
    ASSERT_EQ(atomicWriteFile(path_, bad), "");
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST_F(SnapshotFile, DetectsTruncation)
{
    std::vector<std::uint8_t> bad(file_.begin(),
                                  file_.begin() + 20);
    ASSERT_EQ(atomicWriteFile(path_, bad), "");
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;

    // A torn tail (CRC cut off mid-write) must also be caught.
    std::vector<std::uint8_t> torn(file_.begin(), file_.end() - 2);
    ASSERT_EQ(atomicWriteFile(path_, torn), "");
    EXPECT_NE(readSnapshotFile(path_, out), "");
}

TEST_F(SnapshotFile, DetectsBadMagic)
{
    std::vector<std::uint8_t> bad = file_;
    bad[0] = 'X';
    rewriteWithValidCrc(bad);
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST_F(SnapshotFile, DetectsVersionSkew)
{
    std::vector<std::uint8_t> bad = file_;
    bad[8] = 0xEE;  // Version field follows the 8-byte magic.
    rewriteWithValidCrc(bad);
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(SnapshotFile, RefusesVersion4)
{
    // Version 4 carried the scheduler's wake flags and deadline arrays
    // instead of one wake table per component kind; its layout is
    // refused, not migrated.
    ASSERT_EQ(kSnapshotVersion, 5u);
    std::vector<std::uint8_t> old = file_;
    old[8] = 4;  // Little-endian u32 after the 8-byte magic.
    old[9] = old[10] = old[11] = 0;
    rewriteWithValidCrc(old);
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("format version 4; this build reads version 5"),
              std::string::npos)
        << err;
}

TEST_F(SnapshotFile, MissingFileIsAnError)
{
    Snapshot out;
    EXPECT_NE(readSnapshotFile(path_ + ".nope", out), "");
}

// --- Campaign journal ---------------------------------------------------

CampaignConfig
campConfig(const std::string& journal)
{
    CampaignConfig cc;
    cc.base = snapConfig(SchedulerKind::Active);
    cc.base.warmupCycles = 100;
    cc.base.measureCycles = 300;
    cc.base.jobs = 1;
    cc.trials = 4;
    cc.seedBase = 7;
    cc.journalPath = journal;
    return cc;
}

void
expectTrialsEqual(const std::vector<TrialOutcome>& a,
                  const std::vector<TrialOutcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].trial, b[i].trial);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].accepted, b[i].accepted);
        EXPECT_EQ(a[i].delivered, b[i].delivered);
        EXPECT_EQ(a[i].refused, b[i].refused);
        EXPECT_EQ(a[i].pendingAtEnd, b[i].pendingAtEnd);
        EXPECT_EQ(a[i].duplicates, b[i].duplicates);
        EXPECT_EQ(a[i].faultEvents, b[i].faultEvents);
        EXPECT_EQ(a[i].flitsLost, b[i].flitsLost);
        EXPECT_EQ(a[i].receiverTimeouts, b[i].receiverTimeouts);
        EXPECT_EQ(a[i].firstFaultAt, b[i].firstFaultAt);
        EXPECT_EQ(a[i].preFaultLatency, b[i].preFaultLatency);
        EXPECT_EQ(a[i].postFaultLatency, b[i].postFaultLatency);
        EXPECT_EQ(a[i].recoveryCycles, b[i].recoveryCycles);
        EXPECT_EQ(a[i].deadlocked, b[i].deadlocked);
        EXPECT_EQ(a[i].fullyAccounted, b[i].fullyAccounted);
        EXPECT_EQ(a[i].cyclesRun, b[i].cyclesRun);
        EXPECT_EQ(a[i].flitEvents, b[i].flitEvents);
        EXPECT_EQ(a[i].quarantined, b[i].quarantined);
        EXPECT_EQ(a[i].budgetRetries, b[i].budgetRetries);
    }
}

/** Everything except wallSeconds and resumedTrials must match. */
void
expectSummariesEqual(const CampaignSummary& a, const CampaignSummary& b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.accountedTrials, b.accountedTrials);
    EXPECT_EQ(a.deadlockedTrials, b.deadlockedTrials);
    EXPECT_EQ(a.quarantinedTrials, b.quarantinedTrials);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.duplicates, b.duplicates);
    EXPECT_EQ(a.faultEvents, b.faultEvents);
    EXPECT_EQ(a.deliveryRate, b.deliveryRate);
    EXPECT_EQ(a.meanPreFaultLatency, b.meanPreFaultLatency);
    EXPECT_EQ(a.meanPostFaultLatency, b.meanPostFaultLatency);
    EXPECT_EQ(a.meanRecoveryCycles, b.meanRecoveryCycles);
    EXPECT_EQ(a.maxRecoveryCycles, b.maxRecoveryCycles);
    EXPECT_EQ(a.flitEvents, b.flitEvents);
}

TEST(CampaignJournal, ResumeFromTornJournalReproducesSummary)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_test.jnl";
    std::remove(path.c_str());

    // Uninterrupted reference, no journal.
    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);

    // Full journaled run, cold start.
    std::vector<TrialOutcome> coldTrials;
    const CampaignSummary cold =
        runCampaign(campConfig(path), &coldTrials);
    EXPECT_EQ(cold.resumedTrials, 0u);
    expectSummariesEqual(ref, cold);
    expectTrialsEqual(refTrials, coldTrials);

    // Simulate a crash mid-append: chop the journal mid-record. The
    // replay must keep the intact prefix and re-run the rest.
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(path, bytes), "");
    std::vector<std::uint8_t> torn(
        bytes.begin(),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(bytes.size() * 2 / 3));
    ASSERT_EQ(atomicWriteFile(path, torn), "");

    std::vector<TrialOutcome> resTrials;
    const CampaignSummary res =
        runCampaign(campConfig(path), &resTrials);
    EXPECT_GT(res.resumedTrials, 0u);
    EXPECT_LT(res.resumedTrials, res.trials);
    expectSummariesEqual(ref, res);
    expectTrialsEqual(refTrials, resTrials);

    // A clean re-run replays everything and runs nothing.
    std::vector<TrialOutcome> againTrials;
    const CampaignSummary again =
        runCampaign(campConfig(path), &againTrials);
    EXPECT_EQ(again.resumedTrials, again.trials);
    expectSummariesEqual(ref, again);
    expectTrialsEqual(refTrials, againTrials);
    std::remove(path.c_str());
}

TEST(CampaignJournal, CorruptedRecordFallsBackToGoodPrefix)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_corrupt.jnl";
    std::remove(path.c_str());

    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);
    runCampaign(campConfig(path), nullptr);

    // Flip a byte inside the *last* record's payload: the CRC guard
    // must drop it (and only it) on replay.
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(path, bytes), "");
    bytes[bytes.size() - 10] ^= 0x01;
    ASSERT_EQ(atomicWriteFile(path, bytes), "");

    std::vector<TrialOutcome> resTrials;
    const CampaignSummary res =
        runCampaign(campConfig(path), &resTrials);
    EXPECT_EQ(res.resumedTrials, res.trials - 1);
    expectSummariesEqual(ref, res);
    expectTrialsEqual(refTrials, resTrials);
    std::remove(path.c_str());
}

TEST(CampaignJournal, GarbageFileStartsFresh)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_garbage.jnl";
    const std::vector<std::uint8_t> junk = {'n', 'o', 't', ' ',
                                            'a', ' ', 'j', 'n',
                                            'l', '!'};
    ASSERT_EQ(atomicWriteFile(path, junk), "");

    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(campConfig(path), &trials);
    EXPECT_EQ(s.resumedTrials, 0u);
    expectSummariesEqual(ref, s);
    expectTrialsEqual(refTrials, trials);
    std::remove(path.c_str());
}

TEST(CampaignWatchdog, QuarantinesBudgetExhaustedTrials)
{
    // A zero drain budget cannot quiesce a loaded network: every
    // trial exhausts its (never-growing) budget and must surface as
    // the explicit quarantine fate — counted, reported, not dropped.
    CampaignConfig cc = campConfig("");
    cc.trials = 2;
    cc.drainCap = 0;
    cc.trialRetries = 0;
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);
    ASSERT_EQ(trials.size(), 2u);
    EXPECT_EQ(s.quarantinedTrials, 2u);
    EXPECT_EQ(s.accountedTrials, 0u);
    for (const TrialOutcome& t : trials) {
        EXPECT_TRUE(t.quarantined);
        EXPECT_FALSE(t.fullyAccounted);
        EXPECT_EQ(t.budgetRetries, 0u);
    }
}

TEST(CampaignWatchdog, RetryLadderClearsTransientBudgetShortfalls)
{
    // With a tiny-but-growable budget the doubled retries eventually
    // drain; the outcome records how many re-runs it took and the
    // fates match an ample-budget reference.
    CampaignConfig tight = campConfig("");
    tight.trials = 2;
    tight.drainCap = 64;
    tight.trialRetries = 16;
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(tight, &trials);
    EXPECT_EQ(s.quarantinedTrials, 0u);
    for (const TrialOutcome& t : trials)
        EXPECT_FALSE(t.quarantined);
}

// --- Restore-side checks ------------------------------------------------
//
// Restore refuses state that does not fit the target, each check with
// its own panic. restoreSnapshot() already refuses a differently
// configured network by fingerprint, so the shape checks are reached
// through Network::loadState() or one type's field list directly, and
// the wave checks through a patched payload.

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.injectionRate = 0.3;
    cfg.messageLength = 8;
    cfg.seed = 5;
    return cfg;
}

/** Restore `from`'s state after `cycles` into a network built from `into`. */
void
loadInto(const SimConfig& from, Cycle cycles, const SimConfig& into)
{
    Network a(from);
    a.run(cycles);
    const Snapshot snap = captureSnapshot(a);
    Network b(into);
    StateReader r(snap.payload);
    b.loadState(r);
}

TEST(SnapshotDeath, TrailingBytesPanic)
{
    Network a(smallConfig());
    a.run(50);
    Snapshot snap = captureSnapshot(a);
    snap.payload.push_back(0);
    Network b(smallConfig());
    EXPECT_DEATH(restoreSnapshot(b, snap),
                 "snapshot payload has 1 trailing bytes after restore");
}

TEST(SnapshotDeath, HistogramGeometryMustMatch)
{
    Histogram a(8.0, 16);
    a.add(3.0);
    StateWriter w;
    Histogram::serialize(std::as_const(a), w);
    Histogram b(4.0, 16);
    StateReader r(w.bytes());
    EXPECT_DEATH(Histogram::serialize(b, r),
                 "Histogram geometry mismatch on restore: saved 16 bins "
                 "of width 8, have 16 of width 4");
}

TEST(SnapshotDeath, DeadLinkMapSizeMustMatch)
{
    SimConfig big = smallConfig();
    big.radixK = 5;
    EXPECT_DEATH(loadInto(smallConfig(), 20, big),
                 "dead-link map size mismatch on restore");
}

TEST(SnapshotDeath, AuditMirrorCountsMustMatch)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "the audit is compiled out";
    SimConfig big = smallConfig();
    big.radixK = 5;
    Network a(smallConfig());
    Network b(big);
    StateWriter w;
    Auditor::serialize(std::as_const(*a.auditor()), w);
    StateReader r(w.bytes());
    EXPECT_DEATH(Auditor::serialize(*b.auditor(), r),
                 "audit channel-mirror count mismatch on restore");
}

TEST(SnapshotDeath, FaultScheduleCursorMustBeInRange)
{
    StateWriter w;
    w.u64(0);  // No events ...
    w.u64(5);  // ... yet a cursor past five of them.
    w.u32(0);
    FaultSchedule sched;
    StateReader r(w.bytes());
    EXPECT_DEATH(FaultSchedule::serialize(sched, r),
                 "fault-schedule cursor 5 beyond 0 events on restore");
}

TEST(SnapshotDeath, DenseTableKeyMustBeInRange)
{
    // A 16-node network keeps its pair sequences dense, so a restored
    // pair with source 99 has no slot.
    Network net(smallConfig());
    StateWriter w;
    for (int word = 0; word < 4; ++word)
        w.u64(1);           // RNG stream
    w.u64(0);               // next message id
    w.u64(1);               // one pair sequence ...
    w.u64(99ULL << 32);     // ... from source 99 to node 0
    w.u32(1);
    StateReader r(w.bytes());
    EXPECT_DEATH(TrafficGenerator::serialize(net.generator(), r),
                 "restored table key 425201762304 is out of range");
}

/** A generator payload whose pair-sequence table holds `keys`. */
std::vector<std::uint8_t>
pairSeqPayload(const std::vector<std::uint64_t>& keys)
{
    StateWriter w;
    for (int word = 0; word < 4; ++word)
        w.u64(1);  // RNG stream
    w.u64(0);      // next message id
    w.u64(keys.size());
    for (const std::uint64_t key : keys) {
        w.u64(key);
        w.u32(1);
    }
    return w.bytes();
}

/** smallConfig() on a 24-ary 2-cube: 576 nodes. */
SimConfig
wideConfig()
{
    SimConfig cfg = smallConfig();
    cfg.radixK = 24;
    return cfg;
}

TEST(SnapshotDeath, PairDestinationMustBeInRange)
{
    // Pair (0, 21) of a 16-node network, not pair (1, 5).
    Network net(smallConfig());
    const auto payload = pairSeqPayload({21});
    StateReader r(payload);
    EXPECT_DEATH(TrafficGenerator::serialize(net.generator(), r),
                 "restored table key 21 is out of range");
}

TEST(SnapshotDeath, PairSourceMustBeInRangeAt576Nodes)
{
    Network net(wideConfig());
    const auto payload = pairSeqPayload({576ULL << 32});
    StateReader r(payload);
    EXPECT_DEATH(TrafficGenerator::serialize(net.generator(), r),
                 "restored table key 2473901162496 is out of range");
}

TEST(SnapshotDeath, ReceiverSourceMustBeInRangeAt576Nodes)
{
    Network net(wideConfig());
    StateWriter w;
    for (int vc = 0; vc < 2; ++vc) {
        w.u64(0);            // no buffered flits
        w.b(false);          // not refusing
        w.u64(kInvalidMsg);  // no refused message
    }
    w.u16(0);    // round-robin VC of the one ejection channel
    w.u64(0);    // no open assembly
    w.u64(1);    // one last-sequence entry ...
    w.u32(600);  // ... from source 600
    w.i64(0);
    StateReader r(w.bytes());
    EXPECT_DEATH(Receiver::serialize(net.receiver(0), r),
                 "restored table key 600 is out of range");
}

TEST(SnapshotDeath, TableKeysMustAscend)
{
    Network net(smallConfig());
    const auto descending = pairSeqPayload({5, 3});
    StateReader r(descending);
    EXPECT_DEATH(TrafficGenerator::serialize(net.generator(), r),
                 "restored table key 3 is not above the key before it, 5");
    const auto repeated = pairSeqPayload({5, 5});
    StateReader again(repeated);
    EXPECT_DEATH(TrafficGenerator::serialize(net.generator(), again),
                 "restored table key 5 is not above the key before it, 5");
}

TEST(SnapshotDeath, HeatTrackingMustMatch)
{
    SimConfig heat = smallConfig();
    heat.heatmapEnabled = true;
    EXPECT_DEATH(loadInto(heat, 20, smallConfig()),
                 "heat-tracking mismatch on restore");
}

TEST(SnapshotDeath, TimeseriesPresenceMustMatch)
{
    SimConfig sampled = smallConfig();
    sampled.sampleInterval = 10;
    EXPECT_DEATH(loadInto(sampled, 20, smallConfig()),
                 "timeseries presence mismatch on restore");
}

TEST(SnapshotDeath, WaveBucketCountMustMatch)
{
    SimConfig deep = smallConfig();
    deep.channelLatency = 4;
    EXPECT_DEATH(loadInto(deep, 20, smallConfig()),
                 "wave-bucket count mismatch on restore: saved 8, have 4");
}

TEST(SnapshotDeath, AuditPresenceMustMatch)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "the audit is compiled out";
    // The payload ends with the audit bit and the auditor, then the
    // absent tracer and time series (a 0 byte each) and the two empty
    // explicit-message maps (a 0 count each).
    Network a(smallConfig());
    a.run(20);
    Snapshot snap = captureSnapshot(a);
    StateWriter audit;
    Auditor::serialize(std::as_const(*a.auditor()), audit);
    const std::size_t bit =
        snap.payload.size() - 8 - 8 - 1 - 1 - audit.bytes().size() - 1;
    ASSERT_EQ(snap.payload[bit], 1u);
    snap.payload[bit] = 0;
    Network b(smallConfig());
    EXPECT_DEATH(restoreSnapshot(b, snap),
                 "audit-build mismatch on restore");
}

/** Payload offsets of the first staged flit's fields the restore checks. */
struct WaveFields
{
    std::size_t hopBit = 0;     //!< Of the first router-bound flit.
    std::size_t ejChannel = 0;  //!< Of the first ejection flit.
};

/**
 * Walk `payload`, captured from `net` just now, to its wave buckets and
 * find the first router-bound and the first ejection flit event (0
 * where there is none).
 */
WaveFields
findWaveFields(Network& net, const std::vector<std::uint8_t>& payload)
{
    // Everything ahead of the waves, serialized on its own.
    StateWriter ahead;
    NetworkStats::serialize(std::as_const(net).stats(), ahead);
    FaultModel::serialize(std::as_const(net.faults()), ahead);
    TrafficGenerator::serialize(std::as_const(net.generator()), ahead);
    const NodeId n = net.topology().numNodes();
    for (NodeId id = 0; id < n; ++id)
        Router::serialize(std::as_const(net.router(id)), ahead);
    for (NodeId id = 0; id < n; ++id)
        Injector::serialize(std::as_const(net.injector(id)), ahead);
    for (NodeId id = 0; id < n; ++id)
        Receiver::serialize(std::as_const(net.receiver(id)), ahead);

    StateReader r(payload);
    r.skip(ahead.bytes().size());
    const auto at = [&] { return payload.size() - r.remaining(); };
    // A flit is 31 bytes, and a head's 25-byte header follows it.
    const auto skipFlit = [&] {
        const bool head = r.u8() == static_cast<std::uint8_t>(FlitType::Head);
        r.skip(30 + (head ? 25 : 0));
    };
    WaveFields found;
    const std::uint64_t buckets = r.u64();
    for (std::uint64_t b = 0; b < buckets; ++b) {
        for (std::uint64_t i = r.u64(); i > 0; --i) {
            r.skip(4 + 2 + 2);  // node, inPort, vc
            skipFlit();
            if (found.hopBit == 0)
                found.hopBit = at();
            r.skip(1);
        }
        for (std::uint64_t i = r.u64(); i > 0; --i) {
            r.skip(4);  // node
            if (found.ejChannel == 0)
                found.ejChannel = at();
            r.skip(4 + 2);  // ejChannel, vc
            skipFlit();
        }
        r.skip(r.u64() * 8);   // credits
        r.skip(r.u64() * 10);  // injection credits
        r.skip(r.u64() * 8);   // backward kills
        r.skip(r.u64() * 18);  // aborts
    }
    return found;
}

TEST(SnapshotDeath, NetworkHopBitMustMatchInputPort)
{
    Network a(smallConfig());
    a.run(60);
    Snapshot snap = captureSnapshot(a);
    const WaveFields f = findWaveFields(a, snap.payload);
    ASSERT_NE(f.hopBit, 0u) << "no router-bound flit in flight";
    snap.payload[f.hopBit] ^= 1;
    Network b(smallConfig());
    EXPECT_DEATH(restoreSnapshot(b, snap),
                 "restored flit's network-hop bit disagrees with its "
                 "input port");
}

TEST(SnapshotDeath, EjectionChannelMustBeInRange)
{
    Network a(smallConfig());
    a.run(60);
    Snapshot snap = captureSnapshot(a);
    const WaveFields f = findWaveFields(a, snap.payload);
    ASSERT_NE(f.ejChannel, 0u) << "no ejection flit in flight";
    snap.payload[f.ejChannel] = 3;
    Network b(smallConfig());
    EXPECT_DEATH(restoreSnapshot(b, snap),
                 "restored ejection flit on channel 3 of 1");
}

} // namespace
} // namespace crnet
