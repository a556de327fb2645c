#include "src/fault/campaign.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "src/core/network.hh"
#include "src/sim/checksum.hh"
#include "src/sim/log.hh"
#include "src/sim/parallel.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/walltime.hh"

namespace crnet {

void
DeliveryLedger::onAccepted(const PendingMessage& msg)
{
    LedgerEntry e;
    e.src = msg.src;
    e.dst = msg.dst;
    e.createdAt = msg.createdAt;
    e.measured = msg.measured;
    if (!entries_.emplace(msg.id, e).second)
        panic("message ", msg.id, " accepted twice");
}

void
DeliveryLedger::onDelivered(const DeliveredMessage& msg)
{
    auto it = entries_.find(msg.id);
    if (it == entries_.end()) {
        ++unknown_;
        return;
    }
    LedgerEntry& e = it->second;
    if (e.fate == MessageFate::Delivered) {
        ++duplicates_;
        return;
    }
    if (e.fate == MessageFate::Refused) {
        // The sink finalized a kill-cut copy after the source gave
        // up. The message arrived: delivery wins.
        e.deliveredAfterRefusal = true;
        ++refusalRaces_;
        --refused_;
    }
    e.fate = MessageFate::Delivered;
    e.resolvedAt = msg.deliveredAt;
    e.attempts = msg.attempts;
    e.corrupted = msg.corrupted;
    ++delivered_;
    if (msg.corrupted)
        ++corrupted_;
}

void
DeliveryLedger::onRefused(const PendingMessage& msg, Cycle now)
{
    auto it = entries_.find(msg.id);
    if (it == entries_.end()) {
        ++unknown_;
        return;
    }
    LedgerEntry& e = it->second;
    if (e.fate != MessageFate::Pending)
        return;  // Already delivered; the refusal loses the race.
    e.fate = MessageFate::Refused;
    e.resolvedAt = now;
    e.attempts = msg.attempt;
    ++refused_;
}

template <typename Self, typename Io>
void
TrialOutcome::serialize(Self& self, Io& io)
{
    io.u32(self.trial);
    io.u64(self.seed);
    io.u64(self.accepted);
    io.u64(self.delivered);
    io.u64(self.refused);
    io.u64(self.pendingAtEnd);
    io.u64(self.duplicates);
    io.u64(self.faultEvents);
    io.u64(self.flitsLost);
    io.u64(self.receiverTimeouts);
    io.u64(self.firstFaultAt);
    io.f64(self.preFaultLatency);
    io.f64(self.postFaultLatency);
    io.u64(self.recoveryCycles);
    io.b(self.deadlocked);
    io.b(self.fullyAccounted);
    io.u64(self.cyclesRun);
    io.u64(self.flitEvents);
    io.b(self.quarantined);
    io.u32(self.budgetRetries);
}

namespace {

/** Short fault-event kind name for the status file. */
const char*
faultKindName(FaultEventKind kind)
{
    switch (kind) {
    case FaultEventKind::LinkDeath: return "link_death";
    case FaultEventKind::DirectedLinkDeath: return "directed_link_death";
    case FaultEventKind::RouterFailStop: return "router_fail_stop";
    case FaultEventKind::LinkRepair: return "link_repair";
    case FaultEventKind::BurstStart: return "burst_start";
    case FaultEventKind::BurstEnd: return "burst_end";
    }
    return "unknown";
}

/**
 * One attempt of one trial under a given drain budget. Sets
 * `*budget_exhausted` when the drain loop hit the cap while the
 * network was still active (neither quiescent nor deadlocked) — the
 * signal the watchdog retries on.
 *
 * Telemetry side-channels (all optional, all off the results path):
 * `status` gets phase/cycle updates at the existing phase boundaries,
 * `profile` accumulates this attempt's self-profile, and `fault_rows`
 * is refilled with the trial's first few fault events for the status
 * file's recent-events ring.
 */
CRNET_RESULT_AFFECTING
TrialOutcome
runTrialOnce(const CampaignConfig& cc, std::uint32_t trial,
             Cycle drain_cap, bool* budget_exhausted,
             StatusWriter* status, ProfileData* profile,
             std::vector<StatusWriter::FaultRow>* fault_rows)
{
    SimConfig cfg = cc.base;
    cfg.seed = cc.seedBase + trial;

    Network net(cfg);
    TickProfiler prof;
    if (cfg.profileEnabled && profile != nullptr)
        net.attachProfiler(&prof);
    DeliveryLedger ledger;
    net.attachLedger(&ledger);

    const WallTimer phase;
    if (status != nullptr)
        status->unitPhase(trial, "warmup", 0);
    net.setMeasuring(false);
    net.run(cfg.warmupCycles);
    const double warm_s = phase.seconds();
    if (status != nullptr)
        status->unitPhase(trial, "measure", net.now());
    net.setMeasuring(true);
    net.run(cfg.measureCycles);
    net.setMeasuring(false);
    net.setTrafficEnabled(false);
    const double meas_s = phase.seconds();
    if (status != nullptr)
        status->unitPhase(trial, "drain", net.now());

    // Drain: let in-flight worms, retries and teardown traffic play
    // out until the network is quiescent (or provably stuck). The
    // final step is clamped so the drain cap is honored exactly.
    Cycle drained = 0;
    while (!net.quiescent() && !net.deadlocked() &&
           drained < drain_cap) {
        const Cycle step = std::min<Cycle>(64, drain_cap - drained);
        net.run(step);
        drained += step;
        if (status != nullptr)
            status->unitPhase(trial, "drain", net.now());
    }
    *budget_exhausted = !net.quiescent() && !net.deadlocked();

    if (cfg.profileEnabled && profile != nullptr) {
        ProfileData& p = prof.data();
        p.warmupSeconds += warm_s;
        p.measureSeconds += meas_s - warm_s;
        p.drainSeconds += phase.seconds() - meas_s;
        profile->merge(p);
    }
    if (fault_rows != nullptr) {
        fault_rows->clear();
        const FaultSchedule* fs = net.schedule();
        if (fs != nullptr) {
            constexpr std::size_t kMaxRows = 4;
            for (const FaultEvent& ev : fs->events()) {
                if (fault_rows->size() >= kMaxRows)
                    break;
                fault_rows->push_back(StatusWriter::FaultRow{
                    trial, ev.at, faultKindName(ev.kind)});
            }
        }
    }

    TrialOutcome t;
    t.trial = trial;
    t.seed = cfg.seed;
    t.accepted = ledger.accepted();
    t.delivered = ledger.delivered();
    t.refused = ledger.refused();
    t.pendingAtEnd = ledger.pending();
    t.duplicates = ledger.duplicates();
    t.faultEvents = net.stats().faultEventsApplied.value();
    t.flitsLost = net.stats().flitsLostOnDeadLinks.value();
    t.receiverTimeouts = net.stats().receiverTimeouts.value();
    t.deadlocked = net.deadlocked();
    t.fullyAccounted = ledger.fullyAccounted() && !t.deadlocked;
    t.cyclesRun = net.now();
    t.flitEvents = net.stats().flitsInjected.value() +
                   net.stats().router.flitsForwarded.value() +
                   net.stats().flitsConsumed.value();

    const FaultSchedule* sched = net.schedule();
    t.firstFaultAt =
        sched != nullptr ? sched->firstEventCycle() : 0;

    // Latency transient and recovery time, from the ledger itself, in
    // MsgId order: these are float accumulations.
    double pre_sum = 0.0, post_sum = 0.0;
    std::uint64_t pre_n = 0, post_n = 0;
    Cycle last_pre_resolved = 0;
    for (const auto& entry : ledger.entries()) {
        const LedgerEntry& e = entry.second;
        if (e.fate != MessageFate::Delivered)
            continue;
        const double lat =
            static_cast<double>(e.resolvedAt - e.createdAt);
        if (t.firstFaultAt != 0 && e.createdAt >= t.firstFaultAt) {
            post_sum += lat;
            ++post_n;
        } else {
            pre_sum += lat;
            ++pre_n;
            if (e.resolvedAt > last_pre_resolved)
                last_pre_resolved = e.resolvedAt;
        }
    }
    t.preFaultLatency = pre_n > 0 ? pre_sum / pre_n : 0.0;
    t.postFaultLatency = post_n > 0 ? post_sum / post_n : 0.0;
    if (t.firstFaultAt != 0 && last_pre_resolved > t.firstFaultAt)
        t.recoveryCycles = last_pre_resolved - t.firstFaultAt;
    return t;
}

/**
 * Watchdog wrapper: a trial that exhausts its drain budget while
 * still active is re-run with a doubled cap, up to cc.trialRetries
 * times; one that exhausts every retry is quarantined. Deterministic
 * (the retry ladder depends only on the config), so a resumed
 * campaign replays the exact same fates.
 */
CRNET_RESULT_AFFECTING
TrialOutcome
runTrial(const CampaignConfig& cc, std::uint32_t trial,
         StatusWriter* status, ProfileData* profile)
{
    TrialOutcome t;
    std::vector<StatusWriter::FaultRow> faults;
    for (std::uint32_t attempt = 0;; ++attempt) {
        const Cycle cap = cc.drainCap << attempt;
        bool exhausted = false;
        t = runTrialOnce(cc, trial, cap, &exhausted, status, profile,
                         status != nullptr ? &faults : nullptr);
        t.budgetRetries = attempt;
        if (!exhausted)
            break;
        if (attempt >= cc.trialRetries) {
            t.quarantined = true;
            t.fullyAccounted = false;
            warn("campaign trial ", trial, " (seed ", t.seed,
                 ") still active after ", attempt + 1,
                 " drain budgets up to ", cap,
                 " cycles; quarantining it");
            break;
        }
        warn("campaign trial ", trial, " (seed ", t.seed,
             ") exhausted its ", cap,
             "-cycle drain budget; retrying with double the budget");
    }
    if (status != nullptr) {
        StatusWriter::UnitRow row;
        row.index = trial;
        row.seed = t.seed;
        row.ok = t.fullyAccounted;
        row.deadlocked = t.deadlocked;
        row.quarantined = t.quarantined;
        row.accepted = t.accepted;
        row.delivered = t.delivered;
        row.cycles = t.cyclesRun;
        status->unitDone(row, faults);
    }
    return t;
}

// --- Crash-resume journal ----------------------------------------------
//
// Layout: 8-byte magic "CRNETJNL", then CRC-guarded records of
//   u32 type | u32 payloadLen | payload | u32 crc32(payload)
// Record 0 is the header (journal version + campaign fingerprint);
// every subsequent record is one completed TrialOutcome. Appends go
// through read + append + atomicWriteFile, so a crash mid-append
// leaves the previous journal intact; a torn or corrupted tail is
// detected by the CRC and dropped with a warning on replay.

constexpr char kJournalMagic[8] = {'C', 'R', 'N', 'E',
                                   'T', 'J', 'N', 'L'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint32_t kRecordHeader = 0;
constexpr std::uint32_t kRecordTrial = 1;

/** Campaign identity: the base config plus every campaign knob. */
std::uint64_t
campaignFingerprint(const CampaignConfig& cc)
{
    StateWriter w;
    w.u64(configFingerprint(cc.base));
    w.u32(cc.trials);
    w.u64(cc.seedBase);
    w.u64(cc.drainCap);
    w.u32(cc.trialRetries);
    const std::vector<std::uint8_t>& bytes = w.bytes();
    const std::uint32_t lo = crc32(bytes.data(), bytes.size());
    const std::uint32_t hi = crc32(bytes.data(), bytes.size(), lo);
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

void
appendRecord(StateWriter& file, std::uint32_t type,
             const StateWriter& payload)
{
    file.u32(type);
    file.u32(static_cast<std::uint32_t>(payload.bytes().size()));
    const std::vector<std::uint8_t>& bytes = payload.bytes();
    for (std::uint8_t byte : bytes)
        file.u8(byte);
    file.u32(crc32(bytes.data(), bytes.size()));
}

/** A fresh journal: magic + header record. */
std::vector<std::uint8_t>
freshJournal(std::uint64_t fingerprint)
{
    StateWriter file;
    for (char c : kJournalMagic)
        file.u8(static_cast<std::uint8_t>(c));
    StateWriter header;
    header.u32(kJournalVersion);
    header.u64(fingerprint);
    appendRecord(file, kRecordHeader, header);
    return file.bytes();
}

/**
 * Replay a journal into `trials`/`have` (sized cc.trials). Returns
 * the number of trials replayed. A missing file, bad magic or corrupt
 * header is a cold start (fresh journal bytes are left in
 * `journal_bytes`); a valid header whose fingerprint differs from
 * this campaign's is fatal — resuming a *different* campaign into
 * this one is user error, not corruption. A corrupt or truncated
 * record tail keeps the good prefix with a warning.
 */
std::uint32_t
replayJournal(const CampaignConfig& cc, std::uint64_t fingerprint,
              std::vector<TrialOutcome>& trials,
              std::vector<std::uint8_t>& have,
              std::vector<std::uint8_t>& journal_bytes)
{
    journal_bytes = freshJournal(fingerprint);
    std::vector<std::uint8_t> file;
    if (!readFileBytes(cc.journalPath, file).empty())
        return 0;  // Missing or unreadable: cold start.

    StateReader r(file);
    bool magicOk = r.remaining() >= sizeof(kJournalMagic);
    if (magicOk)
        for (char c : kJournalMagic)
            if (r.u8() != static_cast<std::uint8_t>(c))
                magicOk = false;
    if (!magicOk) {
        warn("campaign journal ", cc.journalPath,
             " has a bad magic number; starting fresh");
        return 0;
    }

    std::uint32_t replayed = 0;
    std::size_t goodEnd = file.size() - r.remaining();
    bool sawHeader = false;
    while (r.remaining() > 0) {
        if (r.remaining() < 8)
            break;  // Torn mid-frame.
        const std::uint32_t type = r.u32();
        const std::uint32_t len = r.u32();
        if (r.remaining() < static_cast<std::uint64_t>(len) + 4)
            break;  // Torn mid-payload.
        const std::size_t payloadAt = file.size() - r.remaining();
        StateReader payload(file.data() + payloadAt, len);
        r.skip(len);
        const std::uint32_t want = r.u32();
        if (crc32(file.data() + payloadAt, len) != want)
            break;  // Corrupted record; drop it and the rest.
        if (!sawHeader) {
            if (type != kRecordHeader)
                break;
            const std::uint32_t version = payload.u32();
            if (version != kJournalVersion) {
                warn("campaign journal ", cc.journalPath,
                     " has record version ", version,
                     "; this build writes version ", kJournalVersion,
                     " — starting fresh");
                return 0;
            }
            const std::uint64_t theirs = payload.u64();
            if (theirs != fingerprint)
                fatal("campaign journal ", cc.journalPath,
                      " belongs to a different campaign (fingerprint ",
                      theirs, ", expected ", fingerprint,
                      "); refusing to resume — delete the journal to "
                      "start over");
            sawHeader = true;
        } else if (type == kRecordTrial) {
            TrialOutcome t;
            TrialOutcome::serialize(t, payload);
            if (t.trial < cc.trials) {
                if (!have[t.trial])
                    ++replayed;
                trials[t.trial] = t;
                have[t.trial] = 1;
            } else {
                warn("campaign journal ", cc.journalPath,
                     " records trial ", t.trial, " beyond ",
                     cc.trials, " trials; ignoring it");
            }
        }
        // Unknown record types are skipped (forward compatibility).
        goodEnd = file.size() - r.remaining();
    }
    if (goodEnd < file.size())
        warn("campaign journal ", cc.journalPath, " has ",
             file.size() - goodEnd,
             " corrupt or torn trailing bytes; resuming from the ",
             replayed, " intact trial records");
    if (!sawHeader)
        return 0;
    journal_bytes.assign(file.begin(),
                         file.begin() +
                             static_cast<std::ptrdiff_t>(goodEnd));
    return replayed;
}

} // namespace

CampaignConfig&
CampaignConfig::applyArgs(int argc, char** argv)
{
    for (const auto& [key, value] : splitArgs(argc, argv)) {
        if (key == "trials") {
            trials = static_cast<std::uint32_t>(parseInteger(
                key, value, 1, std::numeric_limits<std::uint32_t>::max()));
        } else if (key == "seed_base") {
            seedBase = parseInteger(key, value);
        } else if (key == "journal") {
            journalPath = value;
        } else if (key == "trial_retries") {
            // runTrial's last budget is drainCap << trialRetries.
            trialRetries = static_cast<std::uint32_t>(parseInteger(
                key, value, 0, std::min(63, std::countl_zero(drainCap))));
        } else {
            base.set(key, value);
        }
    }
    return *this;
}

CampaignSummary
runCampaign(const CampaignConfig& cc, std::vector<TrialOutcome>* out)
{
    const WallTimer timer;
    CampaignSummary s;
    s.trials = cc.trials;

    std::vector<TrialOutcome> trials(cc.trials);
    std::vector<std::uint8_t> have(cc.trials, 0);

    // Crash-resume: replay completed trials from the journal, then
    // run only the missing ones, appending each durably as it lands.
    const bool journaled = !cc.journalPath.empty();
    std::vector<std::uint8_t> journalBytes;
    std::mutex journalMutex;
    if (journaled) {
        const std::uint64_t fp = campaignFingerprint(cc);
        s.resumedTrials =
            replayJournal(cc, fp, trials, have, journalBytes);
        if (s.resumedTrials > 0)
            inform("campaign journal ", cc.journalPath, ": resuming "
                   "with ", s.resumedTrials, " of ", cc.trials,
                   " trials replayed");
        const std::string err =
            atomicWriteFile(cc.journalPath, journalBytes);
        if (!err.empty())
            fatal("cannot write campaign journal: ", err);
    }

    // Live status (status=<path>): purely observational — the summary
    // and trial rows are identical with or without it. Replayed trials
    // are reported up front so the live aggregates cover the whole
    // campaign, not just the trials this process runs.
    std::unique_ptr<StatusWriter> status;
    if (!cc.base.statusFile.empty()) {
        status = std::make_unique<StatusWriter>(
            cc.base.statusFile, cc.base.statusEverySeconds, "campaign",
            cc.trials, resolveJobs(cc.base.jobs));
        status->noteResumed(s.resumedTrials);
        for (std::uint32_t i = 0; i < cc.trials; ++i) {
            if (!have[i])
                continue;
            const TrialOutcome& t = trials[i];
            StatusWriter::UnitRow row;
            row.index = i;
            row.seed = t.seed;
            row.ok = t.fullyAccounted;
            row.deadlocked = t.deadlocked;
            row.quarantined = t.quarantined;
            row.accepted = t.accepted;
            row.delivered = t.delivered;
            row.cycles = t.cyclesRun;
            status->unitDone(row, {});
        }
    }

    // Journal telemetry: registry-owned atomics, observability only.
    std::atomic<std::uint64_t>* const journalBytesCtr =
        Telemetry::instance().counter("campaign.journal_bytes");
    std::atomic<std::uint64_t>* const trialsDoneCtr =
        Telemetry::instance().counter("campaign.trials_completed");

    // Trials are fully independent (each owns its Network, Rng and
    // ledger), so fan them out and aggregate in trial order — the
    // summary and the per-trial rows match a sequential campaign
    // (and a resumed one) bit for bit regardless of completion order.
    // Per-trial self-profiles, merged into the summary in trial order
    // after the fan-out (resumed trials contribute nothing).
    std::vector<ProfileData> profs(cc.trials);

    parallelFor(cc.trials, resolveJobs(cc.base.jobs),
                [&](std::size_t trial) {
                    if (have[trial])
                        return;
                    trials[trial] = runTrial(
                        cc, static_cast<std::uint32_t>(trial),
                        status.get(), &profs[trial]);
                    trialsDoneCtr->fetch_add(
                        1, std::memory_order_relaxed);
                    if (!journaled)
                        return;
                    StateWriter payload;
                    TrialOutcome::serialize(std::as_const(trials[trial]),
                                            payload);
                    const std::lock_guard<std::mutex> lock(
                        journalMutex);
                    StateWriter record;
                    appendRecord(record, kRecordTrial, payload);
                    journalBytes.insert(journalBytes.end(),
                                        record.bytes().begin(),
                                        record.bytes().end());
                    journalBytesCtr->fetch_add(
                        record.bytes().size(),
                        std::memory_order_relaxed);
                    const std::string err = atomicWriteFile(
                        cc.journalPath, journalBytes);
                    if (!err.empty())
                        warn("cannot append to campaign journal: ",
                             err, " (trial ", trial,
                             " will re-run after a crash)");
                });

    double pre_sum = 0.0, post_sum = 0.0, rec_sum = 0.0;
    std::uint32_t pre_n = 0, post_n = 0;
    for (const TrialOutcome& t : trials) {
        if (t.fullyAccounted)
            ++s.accountedTrials;
        if (t.deadlocked)
            ++s.deadlockedTrials;
        if (t.quarantined)
            ++s.quarantinedTrials;
        s.accepted += t.accepted;
        s.delivered += t.delivered;
        s.refused += t.refused;
        s.pending += t.pendingAtEnd;
        s.duplicates += t.duplicates;
        s.faultEvents += t.faultEvents;
        s.flitEvents += t.flitEvents;
        if (t.preFaultLatency > 0.0) {
            pre_sum += t.preFaultLatency;
            ++pre_n;
        }
        if (t.postFaultLatency > 0.0) {
            post_sum += t.postFaultLatency;
            ++post_n;
        }
        rec_sum += static_cast<double>(t.recoveryCycles);
        if (t.recoveryCycles > s.maxRecoveryCycles)
            s.maxRecoveryCycles = t.recoveryCycles;
    }
    if (out != nullptr)
        out->insert(out->end(), trials.begin(), trials.end());
    s.deliveryRate =
        s.accepted > 0
            ? static_cast<double>(s.delivered) / s.accepted
            : 0.0;
    s.meanPreFaultLatency = pre_n > 0 ? pre_sum / pre_n : 0.0;
    s.meanPostFaultLatency = post_n > 0 ? post_sum / post_n : 0.0;
    s.meanRecoveryCycles =
        cc.trials > 0 ? rec_sum / cc.trials : 0.0;
    for (const ProfileData& p : profs)
        s.profile.merge(p);
    if (status != nullptr)
        status->finish();
    s.wallSeconds = timer.seconds();
    return s;
}

} // namespace crnet
