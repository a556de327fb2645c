#include "src/nic/injector.hh"

#include <algorithm>
#include <array>

#include "src/nic/backoff.hh"
#include "src/nic/padding.hh"
#include "src/sim/audit.hh"
#include "src/sim/log.hh"
#include "src/sim/trace.hh"

namespace crnet {

namespace {

/** Queue entries startWorms examines per free slot, at most. */
constexpr std::size_t kStartScanBound = 16;

} // namespace

InjectorOutbox::InjectorOutbox(const SimConfig& cfg)
{
    flits.reserve(cfg.injectionChannels);
    headers.reserve(cfg.injectionChannels);
}

void
InjectorOutbox::clear()
{
    flits.clear();
    headers.clear();
}

Injector::Injector(NodeId node, const SimConfig& cfg,
                   const Topology& topo, const RoutingAlgorithm& algo,
                   NetworkStats* stats, Rng rng, InjectorOutbox* outbox)
    : selfOutbox_(outbox == nullptr
                      ? std::make_unique<InjectorOutbox>(cfg)
                      : nullptr),
      out_(outbox == nullptr ? *selfOutbox_ : *outbox),
      sent(out_.flits), sentHeaders(out_.headers), node_(node),
      cfg_(cfg), topo_(topo), algo_(algo), stats_(stats), rng_(rng),
      slots_(static_cast<std::size_t>(cfg.injectionChannels) *
             cfg.numVcs),
      rrVc_(cfg.injectionChannels, 0)
{
    if (stats == nullptr)
        panic("Injector requires a NetworkStats block");
    if (cfg.injectionChannels > 64)
        panic("injector with ", cfg.injectionChannels,
              " channels exceeds the 64-bit channel mask");
    for (auto& s : slots_)
        s.credits = cfg.bufferDepth;
    busyDests_.reserve(slots_.size());
}

Injector::Slot&
Injector::slot(std::uint32_t ch, VcId vc)
{
    return slots_[static_cast<std::size_t>(ch) * cfg_.numVcs + vc];
}

const Injector::Slot&
Injector::slot(std::uint32_t ch, VcId vc) const
{
    return slots_[static_cast<std::size_t>(ch) * cfg_.numVcs + vc];
}

std::uint32_t
Injector::slotCredits(std::uint32_t ch, VcId vc) const
{
    return slot(ch, vc).credits;
}

bool
Injector::slotInCooldown(std::uint32_t ch, VcId vc) const
{
    return slot(ch, vc).state == Slot::State::Cooldown;
}

bool
Injector::destBusy(NodeId dst) const
{
    return std::binary_search(busyDests_.begin(), busyDests_.end(), dst);
}

void
Injector::markDestBusy(NodeId dst)
{
    const auto it =
        std::lower_bound(busyDests_.begin(), busyDests_.end(), dst);
    if (it == busyDests_.end() || *it != dst)
        busyDests_.insert(it, dst);
}

void
Injector::releaseDest(NodeId dst)
{
    const auto it =
        std::lower_bound(busyDests_.begin(), busyDests_.end(), dst);
    if (it != busyDests_.end() && *it == dst)
        busyDests_.erase(it);
}

bool
Injector::queueFull() const
{
    return queue_.size() >= cfg_.maxPendingPerNode;
}

bool
Injector::enqueue(const PendingMessage& msg)
{
    if (queueFull()) {
        stats_->sourceQueueDrops.inc();
        return false;
    }
    queue_.pushBack(msg);
    queueMinNotBefore_ = std::min(queueMinNotBefore_, msg.notBefore);
    return true;
}

void
Injector::recomputeQueueMin()
{
    queueMinNotBefore_ = kNeverCycle;
    for (std::size_t i = 0; i < queue_.size(); ++i)
        queueMinNotBefore_ =
            std::min(queueMinNotBefore_, queue_[i].notBefore);
}

void
Injector::acceptCredit(std::uint32_t inj_channel, VcId vc)
{
    Slot& s = slot(inj_channel, vc);
    if (s.state == Slot::State::Cooldown) {
        // Post-kill stragglers; the counter is reset when the slot
        // leaves cooldown.
        return;
    }
    if (s.credits >= cfg_.bufferDepth) {
        stats_->router.lateCreditsDropped.inc();
        return;
    }
    ++s.credits;
}

void
Injector::acceptAbort(std::uint32_t inj_channel, VcId vc, MsgId msg)
{
    Slot& s = slot(inj_channel, vc);
    if (s.state != Slot::State::Active || s.msg.id != msg) {
        // Stale abort. If the slot is mid-cooldown (we killed the
        // worm from this side) the ledger resync is already underway.
        // Otherwise the worm finished injecting before its flits were
        // purged upstream, so their credits will never return: run
        // the slot through a cooldown to reset the ledger. A reused
        // slot whose head is not out yet goes back to the queue
        // (injection requires a full ledger, so nothing of it is in
        // flight); one whose head was injected saw a full ledger at
        // that point, meaning the purge predates it and credits are
        // already settled.
        if (s.state == Slot::State::Cooldown)
            return;
        if (s.state == Slot::State::Active) {
            if (s.nextSeq != 0)
                return;
            releaseDest(s.msg.dst);
            queue_.pushFront(s.msg);
            queueMinNotBefore_ =
                std::min(queueMinNotBefore_, s.msg.notBefore);
        }
        s.state = Slot::State::Cooldown;
        s.cooldownUntil = 0;
        return;
    }
    stats_->abortedByBkill.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::Abort, s.msg.id, node_, node_,
                       s.msg.dst, s.msg.attempt);
    }
    PendingMessage retry = s.msg;
    retry.attempt = static_cast<std::uint16_t>(retry.attempt + 1);
    // The backoff gap is anchored at the next tick (requeueForRetry
    // runs there, where "now" is known).
    pendingRetries_.pushBack(retry);
    // A backward kill arrives only after the router purged the
    // injection VC, so all credit traffic has settled; the slot can be
    // reused at the next tick.
    s.state = Slot::State::Cooldown;
    s.cooldownUntil = 0;
}

void
Injector::requeueForRetry(PendingMessage msg, Cycle now)
{
    const std::uint32_t kills = msg.attempt;  // Attempts failed so far.
    if (cfg_.maxRetries != 0 && kills > cfg_.maxRetries) {
        stats_->messagesFailed.inc();
        if (msg.measured)
            stats_->measuredFailed.inc();
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::GiveUp, msg.id, node_,
                           node_, msg.dst, msg.attempt);
        }
        releaseDest(msg.dst);
        failed.push_back(FailedMessage{msg, now});
        return;
    }
    msg.notBefore = now + retransmissionGap(cfg_, kills, rng_);
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::Retransmit, msg.id, node_,
                       node_, msg.dst, msg.attempt,
                       msg.notBefore - now);
    }
    queue_.pushFront(msg);
    queueMinNotBefore_ = std::min(queueMinNotBefore_, msg.notBefore);
    // The worm is out of the network, so release the destination
    // reservation. No younger message to the same destination can
    // overtake the retry anyway: the retry sits at the front of the
    // queue and startWorms() skips any destination already seen
    // earlier in the scan.
    releaseDest(msg.dst);
}

WireFlit
Injector::buildFlit(const Slot& s, std::uint32_t seq) const
{
    WireFlit f;
    f.msg = s.msg.id;
    f.seq = seq;
    f.src = node_;
    f.dst = s.msg.dst;
    f.attempt = s.msg.attempt;
    if (seq == 0)
        f.type = FlitType::Head;
    else if (seq == s.wireLen - 1)
        f.type = FlitType::Tail;
    else if (seq < s.msg.payloadLen)
        f.type = FlitType::Body;
    else
        f.type = FlitType::Pad;
    // Deterministic payload word; the CRC over it models the per-flit
    // checksum FCR hardware carries.
    f.payload = static_cast<std::uint32_t>((s.msg.id << 20) ^ seq);
    f.stampCrc();
    if (f.type == FlitType::Head) {
        if (cfg_.misrouteAfterRetries != 0 &&
            s.msg.attempt >= cfg_.misrouteAfterRetries) {
            f.misrouteBudget = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(cfg_.misrouteBudget, 255));
        }
        algo_.onInject(node_, f);
    }
    return f;
}

WormHeader
Injector::buildHeader(const Slot& s, Cycle now) const
{
    WormHeader h;
    h.payloadLen = s.msg.payloadLen;
    h.pairSeq = s.msg.pairSeq;
    h.createdAt = s.msg.createdAt;
    h.headInjectedAt = now;
    h.measured = s.msg.measured;
    return h;
}

bool
Injector::timeoutExpired(const Slot& s, Cycle now) const
{
    if (cfg_.protocol == ProtocolKind::None)
        return false;
    if (cfg_.timeoutScheme == TimeoutScheme::PathWide ||
        cfg_.timeoutScheme == TimeoutScheme::DropAtBlock) {
        return false;  // Routers detect stalls in those schemes.
    }
    if (s.nextSeq == 0)
        return false;  // Timeout arms once transmission starts.
    if (cfg_.timeoutScheme == TimeoutScheme::SourceStall)
        return s.stallCycles > cfg_.timeout;
    // SourceImin: the paper's progress bound. If the header never
    // blocked it is consumed after ~hops cycles and injection then
    // proceeds at one flit per cycle — divided by the number of VCs,
    // because up to numVcs worms share the injection channel's
    // bandwidth. `timeout` doubles as the slack on the bound.
    const Cycle header_bound =
        static_cast<Cycle>(s.hops) * cfg_.channelLatency + s.hops;
    const Cycle elapsed = now - s.startCycle;
    if (elapsed <= header_bound + cfg_.timeout)
        return false;
    const Cycle i_min =
        (elapsed - header_bound - cfg_.timeout) / cfg_.numVcs;
    return s.nextSeq < i_min;
}

void
Injector::killWorm(std::uint32_t ch, VcId vc, Cycle now)
{
    Slot& s = slot(ch, vc);
    stats_->sourceKills.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::SourceKill, s.msg.id, node_,
                       node_, s.msg.dst, s.msg.attempt,
                       s.stallCycles);
    }

    WireFlit token;
    token.type = FlitType::Kill;
    token.msg = s.msg.id;
    token.src = node_;
    token.dst = s.msg.dst;
    token.attempt = s.msg.attempt;
    CRNET_AUDIT_HOOK(audit_, onKillIssued(token.msg, token.attempt));
    out_.flits.push_back(InjectedFlit{token, ch, vc});
    channelUsed_ |= std::uint64_t{1} << ch;

    PendingMessage retry = s.msg;
    retry.attempt = static_cast<std::uint16_t>(retry.attempt + 1);
    requeueForRetry(retry, now);

    s.state = Slot::State::Cooldown;
    s.cooldownUntil = now + 2;
}

void
Injector::startWorms(Cycle now)
{
    for (std::uint32_t ch = 0; ch < cfg_.injectionChannels; ++ch) {
        for (VcId vc = 0; vc < cfg_.numVcs; ++vc) {
            Slot& s = slot(ch, vc);
            if (s.state != Slot::State::Free)
                continue;

            // Scan the queue in order; a message is eligible when its
            // backoff expired and (if ordering is enforced) no
            // earlier message, queued or in flight, targets the same
            // destination.
            std::array<NodeId, kStartScanBound> seen;
            std::size_t nseen = 0;
            const std::size_t len = queue_.size();
            std::size_t at = 0;
            for (; at < len; ++at) {
                const PendingMessage& m = queue_[at];
                const auto seen_end = seen.begin() + nseen;
                const bool dst_clear = !cfg_.enforceDestOrder ||
                    (!destBusy(m.dst) &&
                     std::find(seen.begin(), seen_end, m.dst) == seen_end);
                if (dst_clear && m.notBefore <= now)
                    break;
                seen[nseen++] = m.dst;
                if (nseen == kStartScanBound)
                    at = len - 1;  // Bound the scan cost.
            }
            if (at == len)
                continue;

            PendingMessage msg = queue_[at];
            queue_.erase(at);
            if (msg.notBefore == queueMinNotBefore_)
                recomputeQueueMin();
            markDestBusy(msg.dst);

            s.state = Slot::State::Active;
            s.msg = msg;
            s.hops = topo_.distance(node_, msg.dst);
            std::uint32_t eff_hops = s.hops;
            if (cfg_.misrouteAfterRetries != 0 &&
                msg.attempt >= cfg_.misrouteAfterRetries) {
                // Non-minimal hops lengthen the path; pad for the
                // worst case so the CR commit rule stays sound.
                eff_hops += 2 * cfg_.misrouteBudget;
            }
            s.hops = eff_hops;  // I_min must cover misroute detours.
            s.wireLen = wireLength(cfg_.protocol, msg.payloadLen,
                                   eff_hops, cfg_.bufferDepth,
                                   cfg_.padSlack,
                                   cfg_.channelLatency);
            s.nextSeq = 0;
            s.startCycle = now;
            s.stallCycles = 0;
            CRNET_AUDIT_HOOK(audit_, onWormStart(node_, msg.dst,
                                                 s.wireLen,
                                                 msg.payloadLen));
        }
    }
}

void
Injector::checkTimeouts(Cycle now)
{
    for (std::uint32_t ch = 0; ch < cfg_.injectionChannels; ++ch) {
        for (VcId vc = 0; vc < cfg_.numVcs; ++vc) {
            Slot& s = slot(ch, vc);
            if (s.state != Slot::State::Active)
                continue;
            if ((channelUsed_ >> ch) & 1)
                continue;  // One kill token per channel per cycle.
            if (timeoutExpired(s, now))
                killWorm(ch, vc, now);
        }
    }
}

void
Injector::injectFlits(Cycle now)
{
    for (std::uint32_t ch = 0; ch < cfg_.injectionChannels; ++ch) {
        VcId injected_vc = kInvalidVc;
        if (((channelUsed_ >> ch) & 1) == 0) {
            VcId vc = rrVc_[ch];
            for (std::uint32_t i = 0; i < cfg_.numVcs;
                 ++i, vc = nextVc(vc, cfg_.numVcs)) {
                Slot& s = slot(ch, vc);
                if (s.state != Slot::State::Active)
                    continue;
                if (s.nextSeq >= s.wireLen)
                    continue;
                if (s.credits == 0)
                    continue;
                // A head only enters an empty, idle router VC: wait
                // for all credits so worms never share a buffer.
                if (s.nextSeq == 0 && s.credits < cfg_.bufferDepth)
                    continue;

                const WireFlit f = buildFlit(s, s.nextSeq);
                std::uint32_t header = kNoHeader;
                if (s.nextSeq == 0) {
                    header = static_cast<std::uint32_t>(
                        out_.headers.size());
                    out_.headers.push_back(buildHeader(s, now));
                    if (trace_ != nullptr) {
                        trace_->record(TraceEventKind::Inject,
                                       s.msg.id, node_, node_,
                                       s.msg.dst, s.msg.attempt);
                    }
                }
                out_.flits.push_back(InjectedFlit{f, ch, vc, header});
                --s.credits;
                ++s.nextSeq;
                s.stallCycles = 0;
                stats_->flitsInjected.inc();
                CRNET_AUDIT_HOOK(
                    audit_,
                    onFlitInjected(node_, f,
                                   header != kNoHeader
                                       ? &out_.headers[header]
                                       : nullptr));
                if (f.type == FlitType::Pad)
                    stats_->padFlitsInjected.inc();
                rrVc_[ch] = nextVc(vc, cfg_.numVcs);
                injected_vc = vc;

                if (f.type == FlitType::Tail) {
                    // CR commit: padding guarantees the header has
                    // been consumed, so the message is delivered
                    // without acknowledgement.
                    stats_->messagesCommitted.inc();
                    if (trace_ != nullptr) {
                        trace_->record(TraceEventKind::Commit,
                                       s.msg.id, node_, node_,
                                       s.msg.dst, s.msg.attempt);
                    }
                    if (s.msg.measured) {
                        committedStats.push_back(CommittedSample{
                            s.msg.attempt + 1.0,
                            static_cast<double>(s.wireLen -
                                                s.msg.payloadLen - 1) /
                                s.wireLen});
                    }
                    releaseDest(s.msg.dst);
                    s.state = Slot::State::Free;
                }
                break;
            }
        }

        // Stall accounting: compression at the source shows up as the
        // injection VC's buffer staying full — credits exhausted. A
        // worm that merely lost this cycle's channel arbitration to a
        // sibling VC still has a draining buffer and is NOT stalled
        // (this is what lets timeout scale as len/VCs instead of
        // exploding when many worms share one channel).
        for (VcId vc = 0; vc < cfg_.numVcs; ++vc) {
            Slot& s = slot(ch, vc);
            if (s.state != Slot::State::Active || s.nextSeq == 0)
                continue;
            if (s.nextSeq >= s.wireLen)
                continue;
            if (s.credits == 0)
                ++s.stallCycles;
            else if (vc != injected_vc)
                s.stallCycles = 0;
        }
    }
}

void
Injector::tick(Cycle now)
{
    out_.clear();
    failed.clear();
    committedStats.clear();
    channelUsed_ = 0;

    // Finish processing aborts accepted during delivery.
    for (std::size_t i = 0; i < pendingRetries_.size(); ++i)
        requeueForRetry(pendingRetries_[i], now);
    pendingRetries_.clear();

    // Leave cooldown: the router-side VC is purged and all credit
    // traffic has settled, so the ledger resets to "empty buffer".
    for (auto& s : slots_) {
        if (s.state == Slot::State::Cooldown &&
            now >= s.cooldownUntil) {
            s.state = Slot::State::Free;
            s.credits = cfg_.bufferDepth;
        }
    }

    checkTimeouts(now);
    startWorms(now);
    injectFlits(now);
}

Injector::SlotProbe
Injector::slotProbe(std::uint32_t ch, VcId vc) const
{
    const Slot& s = slot(ch, vc);
    SlotProbe p;
    p.active = s.state == Slot::State::Active;
    if (p.active) {
        p.msg = s.msg.id;
        p.dst = s.msg.dst;
        p.attempt = s.msg.attempt;
        p.nextSeq = s.nextSeq;
        p.wireLen = s.wireLen;
        p.stallCycles = s.stallCycles;
    }
    p.credits = s.credits;
    return p;
}

std::uint32_t
Injector::activeWorms() const
{
    std::uint32_t n = 0;
    for (const auto& s : slots_)
        if (s.state == Slot::State::Active)
            ++n;
    return n;
}

Cycle
Injector::nextEventCycle(Cycle now) const
{
    // A pending retry is requeued (and may draw its backoff gap) at
    // the very next tick; an active worm needs per-cycle stall/I_min
    // accounting and flit injection.
    if (!pendingRetries_.empty())
        return now + 1;
    Cycle next = kNeverCycle;
    for (const auto& s : slots_) {
        if (s.state == Slot::State::Active)
            return now + 1;
        if (s.state == Slot::State::Cooldown) {
            // The exit resets the credit ledger at exactly
            // cooldownUntil; waking later would let a late credit see
            // a different slot state than under the sweep scheduler.
            if (s.cooldownUntil <= now + 1)
                return now + 1;
            next = std::min(next, s.cooldownUntil);
        }
    }
    // With no active worm, busyDests_ is empty, so a queued message
    // is held back only by its backoff expiry (destination-order
    // interleavings can delay an individual start, but a tick before
    // then is a no-op, which keeps this bound safe). The incremental
    // minimum makes this O(1) even for a deep backoff queue; it is
    // exact, so the returned deadline matches a full rescan.
    if (!queue_.empty()) {
        if (queueMinNotBefore_ <= now + 1)
            return now + 1;
        next = std::min(next, queueMinNotBefore_);
    }
    return next;
}

bool
Injector::idle() const
{
    if (!queue_.empty() || !pendingRetries_.empty())
        return false;
    for (const auto& s : slots_)
        if (s.state == Slot::State::Active)
            return false;
    return true;
}

void
Injector::afterRestore()
{
    recomputeQueueMin();
    out_.clear();
    failed.clear();
    committedStats.clear();
}

} // namespace crnet
