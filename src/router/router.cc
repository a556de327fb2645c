#include "src/router/router.hh"

#include <bit>

#include "src/sim/audit.hh"
#include "src/sim/log.hh"
#include "src/sim/trace.hh"

namespace crnet {

Router::StatePool::StatePool(const SimConfig& cfg,
                             std::uint64_t nodes)
    : nodes_(nodes),
      inPorts_(static_cast<PortId>(2 * cfg.dimensionsN +
                                   cfg.injectionChannels)),
      outPorts_(static_cast<PortId>(2 * cfg.dimensionsN +
                                    cfg.ejectionChannels)),
      vcs_(cfg.numVcs),
      depth_(cfg.bufferDepth)
{
    if (nodes == 0)
        panic("StatePool needs at least one node");
    if (inPorts_ > kMaxRouterPorts || outPorts_ > kMaxRouterPorts)
        panic("router with ", inPorts_, " input and ", outPorts_,
              " output ports exceeds the ", kMaxRouterPorts,
              "-port switch arbiter");
    if (static_cast<std::size_t>(inPorts_) * vcs_ > 64)
        panic("router with ", inPorts_ * vcs_,
              " input VCs exceeds the 64-bit live-VC masks");
    const std::size_t inVcs =
        static_cast<std::size_t>(nodes) * inPorts_ * vcs_;
    const std::size_t outVcs =
        static_cast<std::size_t>(nodes) * outPorts_ * vcs_;
    // Size everything once; the arrays must never reallocate because
    // routers hold raw base pointers into them.
    flitSlots_.resize(inVcs * depth_);
    inputs_.resize(inVcs);
    cold_.resize(inVcs);
    outputs_.resize(outVcs);
    rrInVc_.assign(static_cast<std::size_t>(nodes) * inPorts_, 0);
    rrOutIn_.assign(static_cast<std::size_t>(nodes) * outPorts_, 0);
    for (std::size_t i = 0; i < inVcs; ++i)
        inputs_[i].buf.bind(&flitSlots_[i * depth_], depth_);
}

std::size_t
Router::StatePool::bytes() const
{
    return flitSlots_.capacity() * sizeof(WireFlit) +
           inputs_.capacity() * sizeof(InputVc) +
           cold_.capacity() * sizeof(InputVcCold) +
           outputs_.capacity() * sizeof(OutputVc) +
           rrInVc_.capacity() * sizeof(VcId) +
           rrOutIn_.capacity() * sizeof(PortId);
}

RouterOutbox::RouterOutbox(const SimConfig& cfg)
{
    const std::size_t net = 2 * static_cast<std::size_t>(cfg.dimensionsN);
    const std::size_t in_ports = net + cfg.injectionChannels;
    const std::size_t out_ports = net + cfg.ejectionChannels;
    // One flit per output port (a kill token or a granted flit), one
    // credit per input port, one backward kill or abort per input VC.
    flits.reserve(out_ports);
    headers.reserve(out_ports);
    credits.reserve(in_ports);
    bkills.reserve(in_ports * cfg.numVcs);
    aborts.reserve(in_ports * cfg.numVcs);
    candidates.reserve(out_ports * cfg.numVcs);
}

void
RouterOutbox::clear()
{
    flits.clear();
    headers.clear();
    credits.clear();
    bkills.clear();
    aborts.clear();
}

Router::Router(NodeId id, const SimConfig& cfg,
               const RoutingAlgorithm& algo, RouterStats* stats,
               Rng rng, RouterOutbox* outbox)
    : selfOutbox_(outbox == nullptr ? std::make_unique<RouterOutbox>(cfg)
                                    : nullptr),
      out_(outbox == nullptr ? *selfOutbox_ : *outbox),
      sentFlits(out_.flits), sentHeaders(out_.headers),
      sentCredits(out_.credits), sentBkills(out_.bkills),
      sentAborts(out_.aborts),
      id_(id), cfg_(cfg), algo_(algo), stats_(stats), rng_(rng),
      networkPorts_(static_cast<PortId>(2 * cfg.dimensionsN)),
      numInPorts_(static_cast<PortId>(networkPorts_ +
                                      cfg.injectionChannels)),
      numOutPorts_(static_cast<PortId>(networkPorts_ +
                                       cfg.ejectionChannels)),
      numVcs_(cfg.numVcs)
{
}

Router::Router(NodeId id, const SimConfig& cfg,
               const RoutingAlgorithm& algo, RouterStats* stats,
               Rng rng)
    : Router(id, cfg, algo, stats, rng, nullptr)
{
    selfPool_ = std::make_unique<StatePool>(cfg, 1);
    attach(*selfPool_, 0);
}

Router::Router(NodeId id, const SimConfig& cfg,
               const RoutingAlgorithm& algo, RouterStats* stats,
               Rng rng, StatePool& pool, std::uint64_t poolIndex,
               RouterOutbox& outbox)
    : Router(id, cfg, algo, stats, rng, &outbox)
{
    attach(pool, poolIndex);
}

void
Router::attach(StatePool& pool, std::uint64_t index)
{
    if (stats_ == nullptr)
        panic("Router requires a shared RouterStats block");
    if (index >= pool.nodes_ || pool.inPorts_ != numInPorts_ ||
        pool.outPorts_ != numOutPorts_ || pool.vcs_ != numVcs_ ||
        pool.depth_ != cfg_.bufferDepth) {
        panic("StatePool geometry mismatch for router ", id_,
              " (pool index ", index, " of ", pool.nodes_, ")");
    }

    inputs_ = &pool.inputs_[index * numInVcs()];
    cold_ = &pool.cold_[index * numInVcs()];
    outputs_ = &pool.outputs_[index * numOutVcs()];
    rrInVc_ = &pool.rrInVc_[index * numInPorts_];
    rrOutIn_ = &pool.rrOutIn_[index * numOutPorts_];

    for (PortId p = 0; p < numOutPorts_; ++p) {
        for (VcId v = 0; v < numVcs_; ++v) {
            OutputVc& o = ovc(p, v);
            o.credits = cfg_.bufferDepth;
            o.ejection = p >= ejBase();
        }
    }

    pendingBkillsAsOut_.reserve(8);
}

Router::InputVc&
Router::ivc(PortId p, VcId v)
{
    return inputs_[vcIndex(p, v)];
}

const Router::InputVc&
Router::ivc(PortId p, VcId v) const
{
    return inputs_[vcIndex(p, v)];
}

Router::InputVcCold&
Router::icold(PortId p, VcId v)
{
    return cold_[vcIndex(p, v)];
}

Router::OutputVc&
Router::ovc(PortId p, VcId v)
{
    return outputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

const Router::OutputVc&
Router::ovc(PortId p, VcId v) const
{
    return outputs_[static_cast<std::size_t>(p) * numVcs_ + v];
}

void
Router::setState(PortId p, VcId v, InputVc::State s)
{
    const std::size_t i = vcIndex(p, v);
    InputVc& in = inputs_[i];
    in.state = s;
    const bool active = s == InputVc::State::Active;
    setBit(routingMask_, i, s == InputVc::State::Routing);
    setBit(activeMask_, i, active);
    setBit(creditMask_, i,
           active && ovc(in.outPort, in.outVc).credits > 0);
}

void
Router::setKillPending(PortId p, VcId v, bool on)
{
    setBit(killMask_, vcIndex(p, v), on);
}

void
Router::markMoved(PortId p, VcId v)
{
    setBit(movedMask_, vcIndex(p, v), true);
}

std::size_t
Router::purge(PortId p, VcId v)
{
    const std::size_t i = vcIndex(p, v);
    setBit(bufferedMask_, i, false);
    return inputs_[i].buf.purge();
}

void
Router::acceptFlit(PortId in_port, VcId vc, const WireFlit& flit,
                   const WormHeader* hdr, Cycle at)
{
    if (in_port >= numInPorts_ || vc >= numVcs_)
        panic("acceptFlit: bad port/vc (", in_port, ", ", vc, ")");
    CRNET_AUDIT_HOOK(audit_,
                     onChannelFlit(id_, in_port, vc, flit, hdr));
    InputVc& in = ivc(in_port, vc);

    if (flit.isKill()) {
        const std::size_t purged = purge(in_port, vc);
        stats_->flitsPurged.inc(purged);
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        switch (in.state) {
          case InputVc::State::Active:
            if (in.msg != flit.msg) {
                // The token must chase its own worm; anything else is
                // a protocol bug.
                panic("kill token for msg ", flit.msg,
                      " found msg ", in.msg, " at node ", id_);
            }
            armKill(in_port, vc, flit);
            break;
          case InputVc::State::Routing:
            // The header was still waiting here: token and worm
            // annihilate; nothing to tear down further downstream.
            stats_->killsAnnihilated.inc();
            break;
          case InputVc::State::Idle:
            // Stale token (the worm was already torn down from the
            // other side, e.g. a backward kill beat us here).
            stats_->staleKills.inc();
            return;
        }
        retire(in_port, vc, flit.msg);
        return;
    }

    // Data flit.
    if (in.state == InputVc::State::Idle) {
        if (flit.isHead()) {
            if (hdr == nullptr)
                panic("head of msg ", flit.msg, " arrived at node ", id_,
                      " without its worm header");
            in.buf.push(flit);
            setBit(bufferedMask_, vcIndex(in_port, vc), true);
            setState(in_port, vc, InputVc::State::Routing);
            in.msg = flit.msg;
            in.attempt = flit.attempt;
            in.stallCycles = 0;
            in.blockTraced = false;
            InputVcCold& c = icold(in_port, vc);
            c.header = *hdr;
            c.headArrivedAt = at;
            return;
        }
        // Continuation of a worm that was purged here (backward-kill
        // race): at most one such flit can be in flight per hop.
        const MsgId purged = icold(in_port, vc).purgeMsg;
        if (flit.msg != purged) {
            panic("straggler for unexpected msg ", flit.msg,
                  " (purged ", purged, ") at node ", id_);
        }
        stats_->stragglersDropped.inc();
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(1));
        return;
    }

    if (flit.msg != in.msg)
        panic("interleaved worms on one VC: msg ", flit.msg, " vs ",
              in.msg, " at node ", id_);
    in.buf.push(flit);
    setBit(bufferedMask_, vcIndex(in_port, vc), true);
}

void
Router::acceptCredit(PortId out_port, VcId vc)
{
    OutputVc& o = ovc(out_port, vc);
    if (o.credits >= cfg_.bufferDepth) {
        // A credit for a flit that a kill purge already accounted for
        // (the kill reset the counter to "downstream empty").
        stats_->lateCreditsDropped.inc();
        return;
    }
    if (o.credits++ != 0 || !o.allocated)
        return;  // The credit-ready bit is already right.
    // The output can outlive its holder: a kill retires the input VC
    // before its token crosses the switch and frees the output, and
    // the VC may by now carry a worm bound elsewhere. Only a holder
    // still Active on this very output becomes ready.
    const InputVc& h = ivc(o.holderPort, o.holderVc);
    if (h.state == InputVc::State::Active && h.outPort == out_port &&
        h.outVc == vc) {
        setBit(creditMask_, vcIndex(o.holderPort, o.holderVc), true);
    }
}

void
Router::acceptBkill(PortId out_port, VcId vc)
{
    pendingBkillsAsOut_.push_back(SentBkill{out_port, vc});
}

void
Router::processBkills()
{
    for (const SentBkill& bk : pendingBkillsAsOut_) {
        OutputVc& o = ovc(bk.inPort, bk.vc);
        if (!o.allocated) {
            // The worm released this output (tail passed) before the
            // downstream purge that sent the bkill; the purged flits'
            // credits never come back, so reset the ledger the same
            // way a live teardown does.
            stats_->staleKills.inc();
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
            continue;
        }
        const PortId hp = o.holderPort;
        const VcId hv = o.holderVc;
        InputVc& in = ivc(hp, hv);
        if (in.state != InputVc::State::Active ||
            in.outPort != bk.inPort || in.outVc != bk.vc) {
            // The holder record is stale: the worm that held this
            // output already died from its own side (a forward kill
            // accepted on the input VC releases the output only when
            // it crosses the switch), and the input VC may by now
            // carry a brand-new worm headed elsewhere. That worm's
            // upstream was cleaned by the original kill chain —
            // propagating a bkill here would tear an innocent
            // bystander on the reused wire. Just release the output.
            stats_->staleKills.inc();
            o.allocated = false;
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
            continue;
        }
        const MsgId msg = in.msg;
        const std::size_t purged = purge(hp, hv);
        stats_->flitsPurged.inc(purged);
        stats_->bkillHops.inc();
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::BkillHop, msg, id_,
                           kInvalidNode, kInvalidNode, in.attempt,
                           hp);
        }
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, hp, hv, msg));
        retire(hp, hv, msg);
        o.allocated = false;
        o.credits = cfg_.bufferDepth;
        o.quarantineUntil = now_ + 2 * cfg_.channelLatency;
        propagateUpstream(hp, hv, msg);
    }
    pendingBkillsAsOut_.clear();
}

void
Router::propagateUpstream(PortId in_port, VcId vc, MsgId msg)
{
    if (in_port >= injBase()) {
        out_.aborts.push_back(SentAbort{
            static_cast<std::uint32_t>(in_port - injBase()), vc, msg});
        return;
    }
    out_.bkills.push_back(SentBkill{in_port, vc});
}

std::uint64_t
Router::forwardKills()
{
    std::uint64_t busy = 0;
    forEachVc(killMask_, [&](PortId p, VcId v) {
        const InputVcCold& c = icold(p, v);
        const PortId o = c.killOutPort;
        const std::uint64_t bit = std::uint64_t{1} << o;
        if (busy & bit)
            return;  // Another kill claimed the channel; wait.
        busy |= bit;
        out_.flits.push_back(SentFlit{c.killFlit, o, c.killOutVc});
        stats_->killsForwarded.inc();
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::KillHop, c.killFlit.msg, id_,
                           c.killFlit.src, c.killFlit.dst,
                           c.killFlit.attempt, o);
        }
        OutputVc& out = ovc(o, c.killOutVc);
        out.allocated = false;
        // Purged downstream flits never return credits; reset the
        // ledger to "empty" and quarantine against the one credit
        // that may still be in flight.
        out.credits = cfg_.bufferDepth;
        // In-flight credits can still arrive for up to two
        // channel traversals after the reset.
        out.quarantineUntil = now_ + 2 * cfg_.channelLatency;
        setKillPending(p, v, false);
    });
    return busy;
}

void
Router::routeHeaders(Cycle now)
{
    forEachVc(routingMask_,
              [&](PortId p, VcId v) { routeHeader(p, v, now); });
}

void
Router::routeHeader(PortId p, VcId v, Cycle now)
{
    InputVc& in = ivc(p, v);
    if (in.buf.empty())
        panic("Routing-state VC with empty buffer at node ", id_);
    WireFlit& head = in.buf.frontMutable();
    if (!head.isHead())
        panic("Routing-state VC without header at front");

    // FCR routers validate header integrity: a corrupted header
    // cannot be trusted to route, so it blocks until the source
    // timeout recovers the worm.
    if (cfg_.protocol == ProtocolKind::Fcr &&
        (head.corrupted || !head.checksumOk())) {
        return;
    }

    bool allocated = false;
    if (head.dst == id_) {
        // Eject: claim any free ejection output VC.
        const auto ej_ports =
            static_cast<std::uint32_t>(numOutPorts_ - ejBase());
        const auto start =
            static_cast<std::uint32_t>(rng_.below(ej_ports));
        for (std::uint32_t i = 0; i < ej_ports && !allocated; ++i) {
            const PortId ep = static_cast<PortId>(
                ejBase() + (start + i) % ej_ports);
            for (VcId ev = 0; ev < numVcs_; ++ev) {
                OutputVc& o = ovc(ep, ev);
                if (o.allocated || o.credits < cfg_.bufferDepth ||
                    now < o.quarantineUntil) {
                    continue;
                }
                o.allocated = true;
                o.holderPort = p;
                o.holderVc = v;
                in.outPort = ep;
                in.outVc = ev;
                allocated = true;
                break;
            }
        }
    } else {
        std::vector<Candidate>& cands = out_.candidates;
        cands.clear();
        algo_.candidates(id_, head, cands, rng_);
        for (const Candidate& c : cands) {
            OutputVc& o = ovc(c.port, c.vc);
            if (o.allocated || o.credits < cfg_.bufferDepth ||
                now < o.quarantineUntil) {
                continue;
            }
            o.allocated = true;
            o.holderPort = p;
            o.holderVc = v;
            in.outPort = c.port;
            in.outVc = c.vc;
            if (c.escape)
                stats_->escapeAllocations.inc();
            if (c.misroute) {
                stats_->misrouteHops.inc();
                if (head.misrouteBudget > 0)
                    --head.misrouteBudget;
            }
            allocated = true;
            break;
        }
    }

    if (allocated) {
        setState(p, v, InputVc::State::Active);
        markMoved(p, v);
        stats_->headersRouted.inc();
        in.blockTraced = false;
        if (trace_ != nullptr) {
            trace_->record(TraceEventKind::HeadAdvance, head.msg, id_,
                           head.src, head.dst, head.attempt,
                           in.outPort);
        }
    } else if (trace_ != nullptr && !in.blockTraced) {
        in.blockTraced = true;
        trace_->record(TraceEventKind::Block, head.msg, id_, head.src,
                       head.dst, head.attempt, p);
    }
}

void
Router::allocateSwitch(std::uint64_t busy_outputs)
{
    // Phase 1: each input port with a ready VC (Active, a flit
    // buffered, a credit on its output VC) nominates one, by a
    // round-robin scan over its ready bits, and sets its bit in the
    // request mask of that VC's output. A blocked VC is never loaded.
    std::uint64_t requested = 0;  // Outputs with at least one request.
    // [out]: requesting inputs; set where `requested` has the bit.
    std::uint64_t req[kMaxRouterPorts];
    VcId nominee[kMaxRouterPorts];  // [in]: set before its bit is.
    const std::uint64_t lane = (std::uint64_t{1} << numVcs_) - 1;
    std::uint64_t ready = activeMask_ & bufferedMask_ & creditMask_;
    for (PortId p = 0; ready != 0; ++p, ready >>= numVcs_) {
        const std::uint64_t mine = ready & lane;
        if (mine == 0)
            continue;
        // Rotate the port's lane so bit j is VC rrInVc_[p] + j (mod
        // numVcs): ascending bits are the round-robin scan order.
        const VcId r = rrInVc_[p];
        std::uint64_t order =
            ((mine >> r) | (mine << (numVcs_ - r))) & lane;
        for (; order != 0; order &= order - 1) {
            auto v = static_cast<VcId>(r + std::countr_zero(order));
            if (v >= numVcs_)
                v = static_cast<VcId>(v - numVcs_);
            const InputVc& in = ivc(p, v);
            const std::uint64_t out = std::uint64_t{1} << in.outPort;
            if (busy_outputs & out)
                continue;  // Channel taken by a kill this cycle.
            const std::uint64_t mask =
                (requested & out) ? req[in.outPort] : 0;
            req[in.outPort] = mask | std::uint64_t{1} << p;
            requested |= out;
            nominee[p] = v;
            break;  // One nomination per input port.
        }
    }

    // Phase 2: each requested output, in ascending order, grants the
    // lowest requesting input at or after its round-robin pointer, or
    // else the lowest overall: the minimum cyclic distance from the
    // pointer (docs/PERFORMANCE.md, "Router hot path").
    for (; requested != 0; requested &= requested - 1) {
        const auto o = static_cast<PortId>(std::countr_zero(requested));
        const std::uint64_t mask = req[o];
        const std::uint64_t after =
            mask & (~std::uint64_t{0} << rrOutIn_[o]);
        const auto p = static_cast<PortId>(
            std::countr_zero(after != 0 ? after : mask));
        const VcId v = nominee[p];
        const std::size_t i = vcIndex(p, v);
        InputVc& in = inputs_[i];
        OutputVc& out = ovc(o, in.outVc);
        WireFlit flit = in.buf.pop();
        if (in.buf.empty())
            setBit(bufferedMask_, i, false);
        std::uint32_t header = kNoHeader;
        if (flit.isHead()) {
            if (o < networkPorts_)
                algo_.onTraverse(id_, o, flit);
            header = static_cast<std::uint32_t>(out_.headers.size());
            out_.headers.push_back(cold_[i].header);
        }
        if (--out.credits == 0)
            setBit(creditMask_, i, false);
        out_.flits.push_back(SentFlit{flit, o, in.outVc, header});
        out_.credits.push_back(SentCredit{p, v});
        stats_->flitsForwarded.inc();
        if (heatTracking_)
            ++heatForwarded_[o];
        markMoved(p, v);
        in.stallCycles = 0;
        rrInVc_[p] = nextVc(v, numVcs_);
        rrOutIn_[o] =
            static_cast<PortId>(p + 1 == numInPorts_ ? 0 : p + 1);
        if (flit.isTail()) {
            out.allocated = false;  // Credits drain back naturally.
            setState(p, v, InputVc::State::Idle);
            in.msg = kInvalidMsg;
            if (!in.buf.empty())
                panic("flits behind a tail on one VC at node ", id_);
        }
    }
}

void
Router::killWormAt(PortId p, VcId v)
{
    InputVc& in = ivc(p, v);
    const MsgId msg = in.msg;
    const std::size_t purged = purge(p, v);
    stats_->flitsPurged.inc(purged);
    stats_->pathWideKills.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::RouterKill, msg, id_,
                       kInvalidNode, kInvalidNode, in.attempt, p);
    }
    CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
    CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, p, v, msg));

    if (in.state == InputVc::State::Active) {
        // Tear down toward the destination with a forward kill token.
        WireFlit token;
        token.type = FlitType::Kill;
        token.msg = msg;
        token.attempt = in.attempt;
        CRNET_AUDIT_HOOK(audit_, onKillIssued(msg, in.attempt));
        armKill(p, v, token);
    }
    // Tear down toward the source (reaches the injector, which
    // schedules the retransmission).
    propagateUpstream(p, v, msg);
    retire(p, v, msg);
}

void
Router::armKill(PortId p, VcId v, const WireFlit& token)
{
    const InputVc& in = ivc(p, v);
    InputVcCold& c = icold(p, v);
    setKillPending(p, v, true);
    c.killFlit = token;
    c.killOutPort = in.outPort;
    c.killOutVc = in.outVc;
}

void
Router::retire(PortId p, VcId v, MsgId purged)
{
    InputVc& in = ivc(p, v);
    setState(p, v, InputVc::State::Idle);
    in.msg = kInvalidMsg;
    in.stallCycles = 0;
    icold(p, v).purgeMsg = purged;
}

void
Router::onOutputLinkDead(PortId out_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        OutputVc& o = ovc(out_port, v);
        if (o.allocated) {
            // Tear the holding worm down toward its source exactly as
            // if a backward kill had arrived over the (now dead)
            // wire; the queue is processed first thing this tick, so
            // the chain reaches the injector before new traffic can
            // claim the stranded buffers.
            pendingBkillsAsOut_.push_back(SentBkill{out_port, v});
            stats_->linkDeathTeardowns.inc();
        } else {
            // Flits the far side purges never return credits; reset
            // the ledger and quarantine against credits still on the
            // wire from before the cut.
            o.credits = cfg_.bufferDepth;
            o.quarantineUntil = now + 2 * cfg_.channelLatency;
        }
    }
}

void
Router::onInputLinkDead(PortId in_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        InputVc& in = ivc(in_port, v);
        if (in.state == InputVc::State::Idle)
            continue;  // Nothing stranded on this VC.
        const MsgId msg = in.msg;
        const std::size_t purged = purge(in_port, v);
        stats_->flitsPurged.inc(purged);
        stats_->linkDeathTeardowns.inc();
        CRNET_AUDIT_HOOK(audit_, onFlitsPurged(purged));
        CRNET_AUDIT_HOOK(audit_, onChannelReset(id_, in_port, v, msg));
        if (in.state == InputVc::State::Active) {
            // The worm continues downstream. Its source's kill token
            // can no longer cross the dead wire, so the break point
            // issues the chasing token itself; it runs to the header
            // (annihilation) or to the receiver (discard/finalize).
            WireFlit token;
            token.type = FlitType::Kill;
            token.msg = msg;
            token.attempt = in.attempt;
            CRNET_AUDIT_HOOK(audit_, onKillIssued(msg, in.attempt));
            armKill(in_port, v, token);
        } else {
            // The header was still waiting here: it dies with the
            // wire, like a kill/header annihilation.
            stats_->killsAnnihilated.inc();
        }
        retire(in_port, v, msg);
    }
    (void)now;
}

void
Router::onOutputLinkRepaired(PortId out_port, Cycle now)
{
    for (VcId v = 0; v < numVcs_; ++v) {
        OutputVc& o = ovc(out_port, v);
        if (o.allocated) {
            // Routing never allocates an output over a dead link, and
            // the death-time teardown deallocated the old holder.
            panic("repaired output (", out_port, ", ", v, ") at node ",
                  id_, " is still allocated");
        }
        o.credits = cfg_.bufferDepth;
        o.quarantineUntil = now + 2 * cfg_.channelLatency;
    }
}

void
Router::checkRouterTimeouts()
{
    // PathWide watches every worm segment; DropAtBlock (the BBN
    // Butterfly / abort-and-retry discipline from the paper's related
    // work) only rejects worms whose *header* is blocked here.
    const std::uint64_t watched =
        cfg_.timeoutScheme == TimeoutScheme::DropAtBlock
            ? routingMask_
            : routingMask_ | activeMask_;
    // Blocked: no progress this cycle and something to move (a waiting
    // header counts). A kill touches only its own VC, so the mask
    // taken up front is what a per-VC test would see.
    const std::uint64_t blocked =
        watched & ~movedMask_ & (routingMask_ | bufferedMask_);
    forEachVc(blocked, [&](PortId p, VcId v) {
        if (++ivc(p, v).stallCycles > cfg_.timeout)
            killWormAt(p, v);
    });
}

void
Router::tick(Cycle now)
{
    now_ = now;
    out_.clear();
    if ((routingMask_ | activeMask_ | killMask_ | movedMask_) == 0 &&
        pendingBkillsAsOut_.empty()) {
        return;  // Every VC is Idle, clean and empty: nothing to do.
    }
    movedMask_ = 0;

    processBkills();
    const std::uint64_t busy_outputs = forwardKills();
    routeHeaders(now);
    allocateSwitch(busy_outputs);
    if (cfg_.timeoutScheme == TimeoutScheme::PathWide ||
        cfg_.timeoutScheme == TimeoutScheme::DropAtBlock) {
        checkRouterTimeouts();
    }
    if (heatTracking_)
        accumulateHeat();
}

void
Router::setHeatTracking(bool on)
{
    heatTracking_ = on;
    heatForwarded_.assign(on ? numOutPorts_ : 0, 0);
    heatBlocked_.assign(on ? numInPorts_ : 0, 0);
    heatOccupancy_ = 0;
}

std::uint64_t
Router::heatForwarded(PortId out_port) const
{
    return heatTracking_ ? heatForwarded_[out_port] : 0;
}

std::uint64_t
Router::heatBlocked(PortId in_port) const
{
    return heatTracking_ ? heatBlocked_[in_port] : 0;
}

void
Router::accumulateHeat()
{
    // Same notion of "blocked" as the path-wide timeout: the worm
    // holds the VC, made no progress this cycle, and has something to
    // move (a waiting header counts).
    forEachVc(bufferedMask_, [&](PortId p, VcId v) {
        heatOccupancy_ += ivc(p, v).buf.size();
    });
    const std::uint64_t lane = (std::uint64_t{1} << numVcs_) - 1;
    std::uint64_t blocked = (routingMask_ | activeMask_) & ~movedMask_ &
                            (routingMask_ | bufferedMask_);
    for (PortId p = 0; blocked != 0; ++p, blocked >>= numVcs_) {
        if ((blocked & lane) != 0)
            ++heatBlocked_[p];
    }
}

bool
Router::idle() const
{
    // An Idle VC's buffer is empty: every path into Idle purges or
    // drains it, and only a head (which leaves Idle) is buffered.
    return (routingMask_ | activeMask_ | killMask_) == 0 &&
           pendingBkillsAsOut_.empty();
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t n = 0;
    forEachVc(bufferedMask_,
              [&](PortId p, VcId v) { n += ivc(p, v).buf.size(); });
    return n;
}

bool
Router::vcIdle(PortId in_port, VcId vc) const
{
    return ivc(in_port, vc).state == InputVc::State::Idle;
}

Router::InputProbe
Router::inputProbe(PortId in_port, VcId vc) const
{
    const std::size_t i = vcIndex(in_port, vc);
    const InputVc& in = inputs_[i];
    InputProbe p;
    switch (in.state) {
      case InputVc::State::Idle: p.state = VcState::Idle; break;
      case InputVc::State::Routing: p.state = VcState::Routing; break;
      case InputVc::State::Active: p.state = VcState::Active; break;
    }
    p.msg = in.msg;
    p.attempt = in.attempt;
    p.buffered = static_cast<std::uint32_t>(in.buf.size());
    p.stallCycles = in.stallCycles;
    p.killPending = ((killMask_ >> i) & 1) != 0;
    p.outPort = in.outPort;
    p.outVc = in.outVc;
    p.headArrivedAt = cold_[i].headArrivedAt;
    return p;
}

std::uint32_t
Router::inputOccupancy(PortId in_port, VcId vc) const
{
    return static_cast<std::uint32_t>(ivc(in_port, vc).buf.size());
}

bool
Router::inputKillPending(PortId in_port, VcId vc) const
{
    return ((killMask_ >> vcIndex(in_port, vc)) & 1) != 0;
}

Router::ReadyBits
Router::readyBits(PortId in_port, VcId vc) const
{
    const std::size_t i = vcIndex(in_port, vc);
    return ReadyBits{((bufferedMask_ >> i) & 1) != 0,
                     ((creditMask_ >> i) & 1) != 0};
}

Router::OutputProbe
Router::outputProbe(PortId out_port, VcId vc) const
{
    const OutputVc& o = ovc(out_port, vc);
    return OutputProbe{o.allocated, o.credits, o.quarantineUntil};
}

void
Router::afterRestore()
{
    out_.clear();
    // The kill and moved masks came with the snapshot; the derived
    // ones are rebuilt from the VC records.
    routingMask_ = activeMask_ = bufferedMask_ = creditMask_ = 0;
    for (PortId p = 0; p < numInPorts_; ++p) {
        for (VcId v = 0; v < numVcs_; ++v) {
            const InputVc& in = ivc(p, v);
            setState(p, v, in.state);
            setBit(bufferedMask_, vcIndex(p, v), !in.buf.empty());
        }
    }
}

} // namespace crnet
