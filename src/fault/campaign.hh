/**
 * @file
 * Monte-Carlo fault-campaign harness: N seeded trials of a network
 * under dynamic faults, each verified against a per-message delivery
 * ledger.
 *
 * The ledger is the delivery-guarantee oracle: every message the
 * network *accepts* (enqueued at a source) must eventually be either
 * delivered exactly once uncorrupted, or explicitly refused (the
 * source exhausted maxRetries — e.g. the destination became
 * unreachable). A message in any other terminal state — silently
 * lost, duplicated, or still pending after the network drained — is
 * an accounting violation and fails the trial.
 *
 * A campaign reports survivability statistics across trials: delivery
 * rate, the post-fault latency transient (mean latency of messages
 * created after the first fault vs before), and recovery time (how
 * long pre-fault traffic needed to finish after the fault hit).
 */

#ifndef CRNET_FAULT_CAMPAIGN_HH
#define CRNET_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/annotations.hh"
#include "src/nic/receiver.hh"
#include "src/sim/config.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/types.hh"
#include "src/traffic/message.hh"

namespace crnet {


/** Terminal state of one accepted message. */
enum class MessageFate : std::uint8_t {
    Pending,    //!< Accepted, not yet resolved (bad if final).
    Delivered,  //!< Arrived intact, exactly once.
    Refused     //!< Source gave up after maxRetries (accounted).
};

/** Ledger record of one accepted message. */
struct LedgerEntry
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Cycle createdAt = 0;
    bool measured = false;
    MessageFate fate = MessageFate::Pending;
    Cycle resolvedAt = 0;
    std::uint16_t attempts = 0;
    bool corrupted = false;
    /**
     * Both terminal states were observed: the source refused after
     * a kill-cut copy had already been finalized at the sink.
     * Delivery wins — the message DID arrive — but the flag is kept
     * so campaigns can report how often the race occurs.
     */
    bool deliveredAfterRefusal = false;
};

/**
 * Per-message delivery account. Attach to a Network with
 * attachLedger(); it observes accepts, deliveries and refusals.
 */
class DeliveryLedger
{
  public:
    CRNET_ALLOW("alloc",
                "one ordered-map node per accepted message while a "
                "ledger is attached: the ledger is the exactly-once "
                "record, by design")
    void onAccepted(const PendingMessage& msg);
    void onDelivered(const DeliveredMessage& msg);
    void onRefused(const PendingMessage& msg, Cycle now);

    std::uint64_t accepted() const { return entries_.size(); }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t refused() const { return refused_; }
    std::uint64_t pending() const
    {
        return entries_.size() - delivered_ - refused_;
    }
    /** Second delivery of an already-delivered message (must be 0). */
    std::uint64_t duplicates() const { return duplicates_; }
    /** Deliveries of messages the ledger never saw accepted. */
    std::uint64_t unknownDeliveries() const { return unknown_; }
    /** Delivered messages whose payload failed its CRC. */
    std::uint64_t corruptedDeliveries() const { return corrupted_; }
    /** Refusals that a delivery later overrode. */
    std::uint64_t refusalRaces() const { return refusalRaces_; }

    /** Every accepted message reached a terminal state, cleanly. */
    bool fullyAccounted() const
    {
        return pending() == 0 && duplicates_ == 0 && unknown_ == 0;
    }

    /** Every accepted message's entry, in ascending MsgId order. */
    const std::map<MsgId, LedgerEntry>& entries() const
    {
        return entries_;
    }

    // --- Checkpoint support (snapshot.hh) -----------------------------

    /**
     * Snapshot field list: entries in MsgId order, then the derived
     * counters.
     */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    std::map<MsgId, LedgerEntry> entries_;
    std::uint64_t delivered_ = 0;
    std::uint64_t refused_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t unknown_ = 0;
    std::uint64_t corrupted_ = 0;
    std::uint64_t refusalRaces_ = 0;
};

/** One campaign's parameters. */
struct CampaignConfig
{
    SimConfig base;                //!< Must have dynamic faults set.
    std::uint32_t trials = 100;
    std::uint64_t seedBase = 1;    //!< Trial t runs seed seedBase + t.
    Cycle drainCap = 500000;       //!< Max extra cycles to drain.
    /**
     * Crash-resume journal path ("" = no journal). Each completed
     * trial is appended as a CRC-guarded record; a restarted campaign
     * replays the journal, re-runs only the missing trials, and
     * produces a summary bit-identical to an uninterrupted run
     * (docs/ROBUSTNESS.md).
     */
    std::string journalPath;
    /**
     * Watchdog retries for a trial that exhausts its drain budget
     * without either quiescing or deadlocking. Each retry doubles the
     * drain cap; a trial that exhausts every retry is *quarantined* —
     * reported with `quarantined` set, never silently dropped.
     */
    std::uint32_t trialRetries = 1;

    /**
     * Apply argv-style `key=value` arguments: `trials` (at least 1),
     * `seed_base`, `journal` and `trial_retries` (at most the count
     * for which `drainCap << trial_retries` fits in 64 bits) set the
     * campaign, and every other key goes to `base.set()`. Returns
     * *this.
     */
    CampaignConfig& applyArgs(int argc, char** argv);
};

/** What happened in one seeded trial. */
struct TrialOutcome
{
    std::uint32_t trial = 0;
    std::uint64_t seed = 0;
    std::uint64_t accepted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t refused = 0;
    std::uint64_t pendingAtEnd = 0;   //!< Must be 0.
    std::uint64_t duplicates = 0;     //!< Must be 0.
    std::uint64_t faultEvents = 0;
    std::uint64_t flitsLost = 0;
    std::uint64_t receiverTimeouts = 0;
    Cycle firstFaultAt = 0;
    double preFaultLatency = 0.0;     //!< Mean, created before fault.
    double postFaultLatency = 0.0;    //!< Mean, created after fault.
    Cycle recoveryCycles = 0;  //!< Pre-fault traffic done, post-fault.
    bool deadlocked = false;
    bool fullyAccounted = false;
    Cycle cyclesRun = 0;
    std::uint64_t flitEvents = 0;  //!< Engine work done this trial.
    /**
     * The trial exhausted its doubled drain budget on every watchdog
     * retry without quiescing or deadlocking — a pathological run,
     * reported as its own fate (fullyAccounted stays false).
     */
    bool quarantined = false;
    std::uint32_t budgetRetries = 0;  //!< Watchdog re-runs consumed.

    /** Journal record field list (snapshot.hh's streams). */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);
};

/** Aggregates across all trials of one campaign. */
struct CampaignSummary
{
    std::uint32_t trials = 0;
    std::uint32_t accountedTrials = 0;  //!< fullyAccounted == true.
    std::uint32_t deadlockedTrials = 0;
    std::uint64_t accepted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t refused = 0;
    std::uint64_t pending = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t faultEvents = 0;
    double deliveryRate = 0.0;       //!< delivered / accepted.
    double meanPreFaultLatency = 0.0;
    double meanPostFaultLatency = 0.0;
    double meanRecoveryCycles = 0.0;
    Cycle maxRecoveryCycles = 0;
    std::uint64_t flitEvents = 0;  //!< Engine work across all trials.
    std::uint32_t quarantinedTrials = 0;  //!< Watchdog gave up.
    /**
     * Trials replayed from the journal rather than run. Excluded
     * (with wallSeconds) from byte-identity comparisons: a resumed
     * campaign matches an uninterrupted one on every other field.
     */
    std::uint32_t resumedTrials = 0;
    double wallSeconds = 0.0;      //!< Wall-clock for the campaign.
    /**
     * Merged per-trial self-profiles (base.profileEnabled), folded in
     * trial order. Resumed trials contribute nothing — their wall
     * time was spent in an earlier process. Excluded (with
     * wallSeconds) from byte-identity comparisons.
     */
    ProfileData profile;
};

/**
 * Run `cfg.trials` seeded trials, fanned out across `cfg.base.jobs`
 * worker threads (resolveJobs; trials are fully independent). Per-
 * trial outcomes are appended to `out` in trial order when non-null —
 * identical to a sequential campaign — and the return value
 * aggregates them.
 *
 * With `cfg.journalPath` set the campaign is crash-resumable: every
 * completed trial is journaled durably, a restart replays the journal
 * and runs only the missing trials, and the final summary is
 * bit-identical to an uninterrupted campaign (wallSeconds and
 * resumedTrials aside). Trials that exhaust their watchdog budget are
 * quarantined and reported, never silently dropped.
 */
CampaignSummary runCampaign(const CampaignConfig& cfg,
                            std::vector<TrialOutcome>* out = nullptr);

template <typename Self, typename Io>
void
DeliveryLedger::serialize(Self& self, Io& io)
{
    io.sorted(self.entries_, [&](auto& id, auto& e) {
        io.u64(id);
        io.u32(e.src);
        io.u32(e.dst);
        io.u64(e.createdAt);
        io.b(e.measured);
        io.u8(e.fate);
        io.u64(e.resolvedAt);
        io.u16(e.attempts);
        io.b(e.corrupted);
        io.b(e.deliveredAfterRefusal);
    });
    io.u64(self.delivered_);
    io.u64(self.refused_);
    io.u64(self.duplicates_);
    io.u64(self.unknown_);
    io.u64(self.corrupted_);
    io.u64(self.refusalRaces_);
}

} // namespace crnet

#endif // CRNET_FAULT_CAMPAIGN_HH
