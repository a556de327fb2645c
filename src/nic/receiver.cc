#include "src/nic/receiver.hh"

#include <algorithm>

#include "src/sim/audit.hh"
#include "src/sim/log.hh"
#include "src/sim/trace.hh"

namespace crnet {

ReceiverOutbox::ReceiverOutbox(const SimConfig& cfg)
{
    credits.reserve(cfg.ejectionChannels);
    bkills.reserve(static_cast<std::size_t>(cfg.ejectionChannels) *
                   cfg.numVcs);
}

void
ReceiverOutbox::clear()
{
    credits.clear();
    bkills.clear();
}

Receiver::Receiver(NodeId node, const SimConfig& cfg,
                   NetworkStats* stats, DeliverySink* sink,
                   ReceiverOutbox* outbox)
    : selfOutbox_(outbox == nullptr
                      ? std::make_unique<ReceiverOutbox>(cfg)
                      : nullptr),
      out_(outbox == nullptr ? *selfOutbox_ : *outbox), node_(node),
      cfg_(cfg), stats_(stats), sink_(sink),
      rrVc_(cfg.ejectionChannels, 0)
{
    if (stats == nullptr || sink == nullptr)
        panic("Receiver requires a NetworkStats block and a sink");
    // Far beyond any stall the source timeout resolves on its own
    // (timeout scales with VC sharing, plus kill/retry round trips).
    const Cycle legit = 16 * (cfg.timeout + 1) * cfg.numVcs;
    starvationThreshold_ = legit < 512 ? 512 : legit;
    const std::size_t vcs =
        static_cast<std::size_t>(cfg.ejectionChannels) * cfg.numVcs;
    slots_.resize(vcs * cfg.bufferDepth);
    bufs_.resize(vcs);
    for (std::size_t i = 0; i < vcs; ++i)
        bufs_[i].buf.bind(&slots_[i * cfg.bufferDepth], cfg.bufferDepth);
}

Receiver::VcBuffer&
Receiver::vcBuf(std::uint32_t ch, VcId vc)
{
    return bufs_[static_cast<std::size_t>(ch) * cfg_.numVcs + vc];
}

const Receiver::VcBuffer&
Receiver::vcBuf(std::uint32_t ch, VcId vc) const
{
    return bufs_[static_cast<std::size_t>(ch) * cfg_.numVcs + vc];
}

bool
Receiver::headBuffered(const VcBuffer& b)
{
    for (std::size_t i = 0; i < b.buf.size(); ++i)
        if (b.buf.peek(i).isHead())
            return true;
    return false;
}

std::uint32_t
Receiver::occupancy(std::uint32_t ch, VcId vc) const
{
    return static_cast<std::uint32_t>(vcBuf(ch, vc).buf.size());
}

std::uint64_t
Receiver::bufferedFlits() const
{
    std::uint64_t n = 0;
    for (const auto& b : bufs_)
        n += b.buf.size();
    return n;
}

void
Receiver::acceptFlit(std::uint32_t ej_channel, VcId vc,
                     const WireFlit& flit, const WormHeader* hdr)
{
    VcBuffer& b = vcBuf(ej_channel, vc);
    CRNET_AUDIT_HOOK(audit_, onEjectionFlit(node_, ej_channel, vc,
                                            flit, hdr));

    if (flit.isKill()) {
        // Forward kill: terminate the partial message (unless the
        // token is stale — a newer attempt already started
        // assembling). Under dynamic faults the buffered remainder of
        // the killed attempt is first folded into the assembly, so a
        // worm cut *after* its payload fully arrived can still be
        // finalized instead of thrown away (tick resolves it).
        if (dynamicFaults_)
            drainIntoAssembly(ej_channel, vc, flit.msg);
        const std::size_t purged = b.buf.purge();
        stats_->router.flitsPurged.inc(purged);
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        auto it = assemblies_.find(flit.msg);
        if (it != assemblies_.end() &&
            it->second.attempt <= flit.attempt) {
            if (dynamicFaults_) {
                it->second.terminated = true;
            } else {
                if (trace_ != nullptr) {
                    trace_->record(TraceEventKind::Discard, flit.msg,
                                   node_, it->second.src, node_,
                                   it->second.attempt);
                }
                assemblies_.erase(it);
            }
        }
        b.refusing = false;
        b.refusedMsg = kInvalidMsg;
        return;
    }
    if (flit.isHead()) {
        // The VC holds one header. A second head cannot queue behind
        // an unconsumed one: the router claims an ejection VC only
        // with every credit home, and each reset of that ledger purges
        // this buffer first.
        if (hdr == nullptr)
            panic("head of msg ", flit.msg, " reached node ", node_,
                  " without its worm header");
        if (headBuffered(b))
            panic("head of msg ", flit.msg, " queued behind an "
                  "unconsumed head at node ", node_);
        b.header = *hdr;
    }
    b.buf.push(flit);
}

void
Receiver::consume(std::uint32_t ch, VcId vc, Cycle now)
{
    VcBuffer& b = vcBuf(ch, vc);
    const WireFlit& front = b.buf.front();

    // FCR integrity check at the buffer head: payload flits (head and
    // body) must pass their CRC and actually belong here. On failure
    // the receiver refuses to consume; the stalled worm triggers the
    // source timeout and the message is killed and retransmitted.
    if (cfg_.protocol == ProtocolKind::Fcr &&
        (front.type == FlitType::Head ||
         front.type == FlitType::Body)) {
        const bool bad = front.corrupted || !front.checksumOk() ||
                         front.dst != node_;
        if (bad) {
            if (!b.refusing || b.refusedMsg != front.msg) {
                b.refusing = true;
                b.refusedMsg = front.msg;
                stats_->refusals.inc();
            }
            return;
        }
    }
    b.refusing = false;

    const WireFlit flit = b.buf.pop();
    out_.credits.push_back(ReceiverCredit{ch, vc});
    stats_->flitsConsumed.inc();
    CRNET_AUDIT_HOOK(audit_,
                     onFlitConsumed(node_, flit,
                                    flit.isHead() ? &b.header : nullptr));
    if (flit.type == FlitType::Pad)
        stats_->padFlitsConsumed.inc();

    // Stale-attempt handling: a kill token chasing a congested path
    // can lose the race against the retransmission, which may arrive
    // over a different ejection VC. Flits of an older attempt are
    // therefore discarded on sight; the assembly only ever tracks the
    // newest attempt observed. (A tail can never be stale: CR kills
    // only happen before tail injection.)
    Assembly& a = assemblies_[flit.msg];
    if (flit.isHead()) {
        if (a.src != kInvalidNode) {
            if (a.attempt == flit.attempt) {
                panic("duplicate head for msg ", flit.msg,
                      " attempt ", flit.attempt, " at node ", node_);
            }
            if (a.attempt > flit.attempt) {
                stats_->staleAttemptFlits.inc();
                return;
            }
        }
        // A brand new message, or a retry superseding a partial
        // older attempt.
        a.src = flit.src;
        a.attempt = flit.attempt;
        a.header = b.header;
        a.nextSeq = 0;
        a.corrupted = false;
        a.terminated = false;
    } else if (a.src == kInvalidNode) {
        // Continuation of an attempt whose assembly is already gone
        // (superseded and then delivered/killed): discard.
        assemblies_.erase(flit.msg);
        stats_->staleAttemptFlits.inc();
        return;
    } else if (flit.attempt < a.attempt) {
        stats_->staleAttemptFlits.inc();
        return;
    } else if (flit.attempt > a.attempt) {
        panic("continuation of attempt ", flit.attempt,
              " before its head for msg ", flit.msg);
    }

    a.lastFlitAt = now;
    a.ejChannel = ch;
    a.vc = vc;

    if (flit.seq != a.nextSeq)
        panic("out-of-order flit within worm: msg ", flit.msg,
              " seq ", flit.seq, " expected ", a.nextSeq);
    ++a.nextSeq;

    if ((flit.type == FlitType::Head || flit.type == FlitType::Body) &&
        (flit.corrupted || !flit.checksumOk())) {
        a.corrupted = true;
    }

    if (flit.isTail())
        deliver(flit.msg, a, now);
}

void
Receiver::commitDelivery(MsgId msg, const Assembly& a, Cycle now)
{
    DeliveredMessage d;
    d.id = msg;
    d.src = a.src;
    d.dst = node_;
    d.payloadLen = a.header.payloadLen;
    d.pairSeq = a.header.pairSeq;
    d.createdAt = a.header.createdAt;
    d.headInjectedAt = a.header.headInjectedAt;
    d.deliveredAt = now;
    d.attempts = static_cast<std::uint16_t>(a.attempt + 1);
    d.measured = a.header.measured;
    d.corrupted = a.corrupted;

    stats_->messagesDelivered.inc();
    ++delivered_;
    if (d.corrupted)
        stats_->corruptedDeliveries.inc();

    checkDeliveryOrder(d.src, d.pairSeq);

    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::Deliver, d.id, node_, d.src,
                       d.dst,
                       static_cast<std::uint16_t>(d.attempts - 1),
                       d.deliveredAt - d.createdAt);
    }
    if (d.measured) {
        stats_->measuredDelivered.inc();
        stats_->measuredPayloadFlits.inc(d.payloadLen);
    }
    sink_->onDelivered(d);
}

void
Receiver::deliver(MsgId msg, const Assembly& a, Cycle now)
{
    // A retransmission can complete after a kill-cut copy of the same
    // message was already finalized; deliver that pairSeq only once.
    if (dynamicFaults_) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(a.src) << 32) | a.header.pairSeq;
        if (seenSeq_.count(key) != 0) {
            stats_->retryDuplicatesSuppressed.inc();
            assemblies_.erase(msg);
            return;
        }
    }

    commitDelivery(msg, a, now);
    assemblies_.erase(msg);
}

void
Receiver::drainIntoAssembly(std::uint32_t ch, VcId vc, MsgId msg)
{
    auto it = assemblies_.find(msg);
    if (it == assemblies_.end())
        return;
    Assembly& a = it->second;
    VcBuffer& b = vcBuf(ch, vc);
    while (!b.buf.empty()) {
        const WireFlit& front = b.buf.front();
        if (front.msg != msg || front.attempt != a.attempt ||
            front.seq != a.nextSeq) {
            break;  // The caller purges whatever remains.
        }
        const WireFlit f = b.buf.pop();
        // Folded flits count as purged, not consumed: they return no
        // credits (the ejection ledger resets with the teardown) and
        // leave every flit-conservation invariant untouched. A head is
        // never folded: the assembly's own head was consumed already.
        stats_->router.flitsPurged.inc();
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(1));
        ++a.nextSeq;
        if ((f.type == FlitType::Head || f.type == FlitType::Body) &&
            (f.corrupted || !f.checksumOk())) {
            a.corrupted = true;
        }
    }
}

void
Receiver::resolveTerminated(MsgId msg, Assembly& a, Cycle now)
{
    const bool complete =
        a.header.payloadLen > 0 && a.nextSeq >= a.header.payloadLen;
    // CR delivers whatever arrived (corruption is CR's known blind
    // spot and is counted at delivery); FCR never finalizes a
    // corrupted payload — the retransmission carries the clean copy.
    bool finalize = complete;
    if (cfg_.protocol == ProtocolKind::Fcr && a.corrupted)
        finalize = false;

    const std::uint64_t key =
        (static_cast<std::uint64_t>(a.src) << 32) | a.header.pairSeq;
    if (finalize && seenSeq_.count(key) != 0) {
        stats_->retryDuplicatesSuppressed.inc();
        finalize = false;
    } else if (finalize) {
        stats_->assembliesFinalized.inc();
        commitDelivery(msg, a, now);
    } else {
        stats_->assembliesDiscarded.inc();
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::Discard, msg, node_, a.src,
                           node_, a.attempt);
        }
    }
    assemblies_.erase(msg);
}

void
Receiver::checkStarvation(Cycle now)
{
    // Salvaging emits trace events, folds latencies into stats and
    // queues bkills, so its MsgId order is part of the deterministic
    // contract. Resolving erases only the entry being resolved.
    for (auto it = assemblies_.begin(); it != assemblies_.end();) {
        const MsgId id = it->first;
        Assembly& a = (it++)->second;
        if (a.terminated || now - a.lastFlitAt <= starvationThreshold_)
            continue;
        stats_->receiverTimeouts.inc();
        // Salvage what the buffer still holds, then drop the rest
        // (e.g. a refused corrupt flit at the head).
        drainIntoAssembly(a.ejChannel, a.vc, id);
        VcBuffer& b = vcBuf(a.ejChannel, a.vc);
        if (!b.buf.empty() && b.buf.front().msg == id) {
            const std::size_t purged = b.buf.purge();
            stats_->router.flitsPurged.inc(purged);
            CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        }
        if (b.refusedMsg == id) {
            b.refusing = false;
            b.refusedMsg = kInvalidMsg;
        }
        // Tear the stranded ejection reservation down toward the
        // source; the router treats this like any backward kill.
        out_.bkills.push_back(ReceiverCredit{a.ejChannel, a.vc});
        resolveTerminated(id, a, now);
    }
}

void
Receiver::checkDeliveryOrder(NodeId src, std::uint32_t pair_seq)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32) | pair_seq;
    if (!seenSeq_.insert(key).second) {
        stats_->duplicateDeliveries.inc();
        return;
    }
    std::int64_t& last = findOrInsert(lastSeq_, src, std::int64_t{-1});
    if (static_cast<std::int64_t>(pair_seq) < last)
        stats_->orderViolations.inc();
    else
        last = pair_seq;
}

void
Receiver::resolveAllTerminated(Cycle now)
{
    // Resolution emits trace events and accumulates stats, so its
    // MsgId order is part of the deterministic contract. Resolving
    // erases only the entry being resolved.
    for (auto it = assemblies_.begin(); it != assemblies_.end();) {
        const MsgId id = it->first;
        Assembly& a = (it++)->second;
        if (a.terminated)
            resolveTerminated(id, a, now);
    }
}

void
Receiver::tick(Cycle now)
{
    out_.clear();
    if (dynamicFaults_) {
        resolveAllTerminated(now);
        if (now % kStarvationCheckPeriod == 0)
            checkStarvation(now);
    }
    for (std::uint32_t ch = 0; ch < cfg_.ejectionChannels; ++ch) {
        VcId vc = rrVc_[ch];
        for (std::uint32_t i = 0; i < cfg_.numVcs;
             ++i, vc = nextVc(vc, cfg_.numVcs)) {
            VcBuffer& b = vcBuf(ch, vc);
            if (b.buf.empty())
                continue;
            if (b.refusing && b.refusedMsg == b.buf.front().msg)
                continue;  // Withholding flow control on purpose.
            const std::size_t before = out_.credits.size();
            consume(ch, vc, now);
            if (out_.credits.size() != before) {
                // Consumed: one flit per ejection channel per cycle.
                rrVc_[ch] = nextVc(vc, cfg_.numVcs);
                break;
            }
            // Refused at the head: try another VC this cycle.
        }
    }
}

std::vector<Receiver::AssemblyProbe>
Receiver::openAssemblies() const
{
    std::vector<AssemblyProbe> out;
    out.reserve(assemblies_.size());
    for (const auto& entry : assemblies_) {
        AssemblyProbe p;
        p.msg = entry.first;
        p.src = entry.second.src;
        p.attempt = entry.second.attempt;
        p.nextSeq = entry.second.nextSeq;
        p.payloadLen = entry.second.header.payloadLen;
        p.lastFlitAt = entry.second.lastFlitAt;
        out.push_back(p);
    }
    return out;
}

bool
Receiver::idle() const
{
    for (const auto& b : bufs_)
        if (!b.buf.empty())
            return false;
    return assemblies_.empty();
}

Cycle
Receiver::nextEventCycle(Cycle now) const
{
    for (const auto& b : bufs_)
        if (!b.buf.empty())
            return now + 1;
    if (!dynamicFaults_ || assemblies_.empty())
        return kNeverCycle;
    Cycle next = kNeverCycle;
    for (const auto& entry : assemblies_) {
        if (entry.second.terminated)
            return now + 1;
        // The starvation condition (now - lastFlitAt > threshold)
        // first holds at lastFlitAt + threshold + 1, but tick only
        // scans on period boundaries — round up to the one that fires.
        Cycle at =
            entry.second.lastFlitAt + starvationThreshold_ + 1;
        if (at < now + 1)
            at = now + 1;
        at = (at + kStarvationCheckPeriod - 1) /
             kStarvationCheckPeriod * kStarvationCheckPeriod;
        next = std::min(next, at);
    }
    return next;
}

void
Receiver::afterRestore()
{
    out_.clear();
}

} // namespace crnet
