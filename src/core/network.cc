#include "src/core/network.hh"

#include <algorithm>
#include <array>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>

#include "src/core/timeseries.hh"
#include "src/fault/campaign.hh"
#include "src/sim/log.hh"
#include "src/sim/trace.hh"
#include "src/sim/walltime.hh"

namespace crnet {

namespace {

/** Fold every Counter of `from` into `into` and zero `from`. */
void
foldCounters(NetworkStats& into, NetworkStats& from)
{
    for (const auto field : kRouterCounters) {
        Counter& f = from.router.*field;
        if (f.value() != 0) {
            (into.router.*field).inc(f.value());
            f.reset();
        }
    }
    for (const auto field : kNetworkCounters) {
        Counter& f = from.*field;
        if (f.value() != 0) {
            (into.*field).inc(f.value());
            f.reset();
        }
    }
}

/**
 * Stage the header a component outbox holds at `at` (kNoHeader: the
 * flit is no head) in a segment's header lane; returns its index there.
 */
template <typename Segment>
std::uint32_t
stageHeader(Segment& seg, const std::vector<WormHeader>& from,
            std::uint32_t at)
{
    if (at == kNoHeader)
        return kNoHeader;
    seg.headers.push_back(from[at]);
    return static_cast<std::uint32_t>(seg.headers.size() - 1);
}

/** The worm header staged with event `p` (null unless a head). */
template <typename Event, typename Segment>
const WormHeader*
headerOf(const Event& p, const Segment& seg)
{
    return p.header == kNoHeader ? nullptr : &seg.headers[p.header];
}

} // namespace

void
Network::Segment::openRun()
{
    if (runs == kMaxRuns)
        panic("wave segment holds more than ", kMaxRuns, " runs");
    const auto mark = [this](auto& lane) {
        lane.runStart[runs] =
            static_cast<std::uint32_t>(lane.events.size());
        if constexpr (requires { lane.remote; }) {
            lane.remoteStart[runs] =
                static_cast<std::uint32_t>(lane.remote.size());
        }
    };
    mark(flits);
    mark(recvFlits);
    mark(credits);
    mark(injCredits);
    mark(bkills);
    mark(aborts);
    ++runs;
}

void
Network::Segment::clear()
{
    const auto reset = [](auto& lane) {
        lane.events.clear();
        if constexpr (requires { lane.remote; })
            lane.remote.clear();
    };
    reset(flits);
    reset(recvFlits);
    reset(credits);
    reset(injCredits);
    reset(bkills);
    reset(aborts);
    headers.clear();
    runs = 0;
}

std::size_t
Network::Segment::size() const
{
    return flits.events.size() + recvFlits.events.size() +
           credits.events.size() + injCredits.events.size() +
           bkills.events.size() + aborts.events.size();
}

bool
Network::Segment::empty() const
{
    return size() == 0;
}

void
Network::Wave::clear()
{
    for (Segment& seg : segs)
        seg.clear();
}

bool
Network::Wave::empty() const
{
    for (const Segment& seg : segs)
        if (!seg.empty())
            return false;
    return true;
}

template <typename W, typename L, typename Fn>
void
Network::forEachInOrder(W& wave, L Segment::*lane, Fn&& fn)
{
    const std::uint32_t runs = wave.segs.front().runs;
    for (std::uint32_t r = 0; r < runs; ++r) {
        for (auto& seg : wave.segs) {
            auto& l = seg.*lane;
            const std::size_t end =
                r + 1 < runs ? l.runStart[r + 1] : l.events.size();
            for (std::size_t i = l.runStart[r]; i < end; ++i)
                fn(l.events[i], seg);
        }
    }
}

template <typename T, typename Fn>
void
Network::forEachAddressed(Wave& wave, OwnedLane<T> Segment::*lane,
                          unsigned owner, Fn&& fn)
{
    // One unsigned compare: node - begin wraps above span when
    // node < begin.
    const NodeId begin = shardCtx_[owner].begin;
    const NodeId span = shardCtx_[owner].end - begin;
    const std::uint32_t runs = wave.segs.front().runs;
    for (std::uint32_t r = 0; r < runs; ++r) {
        for (unsigned t = 0; t < wave.segs.size(); ++t) {
            Segment& seg = wave.segs[t];
            OwnedLane<T>& l = seg.*lane;
            const bool last = r + 1 == runs;
            if (t == owner) {
                // Own events, less the few addressed elsewhere.
                const std::size_t end =
                    last ? l.events.size() : l.runStart[r + 1];
                for (std::size_t i = l.runStart[r]; i < end; ++i) {
                    if (l.events[i].node - begin < span)
                        fn(l.events[i], seg);
                }
                continue;
            }
            const std::size_t end =
                last ? l.remote.size() : l.remoteStart[r + 1];
            for (std::size_t j = l.remoteStart[r]; j < end; ++j) {
                T& e = l.events[l.remote[j]];
                if (e.node - begin < span)
                    fn(e, seg);
            }
        }
    }
}

Network::Network(const SimConfig& cfg) : cfg_(cfg)
{
    cfg_.validate();
    activeSched_ = cfg_.sched != SchedulerKind::Sweep;
    // Events mature at most channelLatency cycles out, and the
    // current cycle's bucket is in use until the cycle ends.
    buckets_.resize(static_cast<std::size_t>(cfg_.channelLatency) + 1);
    Rng root(cfg_.seed);

    topo_ = makeTopology(cfg_);
    neighbors_ = topo_->neighborTable();
    faults_ = std::make_unique<FaultModel>(
        *topo_, cfg_.transientFaultRate, root.fork());
    if (cfg_.permanentLinkFaults > 0)
        faults_->injectPermanentFaults(cfg_.permanentLinkFaults);
    routing_ = makeRouting(cfg_, *topo_, *faults_);
    generator_ = std::make_unique<TrafficGenerator>(cfg_, *topo_,
                                                    root.fork());

    const NodeId n = topo_->numNodes();

    // Sharding setup. The shard count is an execution knob: ranges
    // are contiguous and the component construction below (and with
    // it the RNG fork order) is identical for every value.
    shards_ = std::min<unsigned>(resolveShards(cfg_.shards),
                                 static_cast<unsigned>(n));
    shards_ = std::max(shards_, 1u);
    shardCtx_ = std::vector<ShardCtx>(shards_);
    {
        const NodeId per = n / shards_;
        const NodeId extra = n % shards_;
        NodeId at = 0;
        for (unsigned s = 0; s < shards_; ++s) {
            shardCtx_[s].begin = at;
            at += per + (s < extra ? 1 : 0);
            shardCtx_[s].end = at;
        }
    }
    // Counters accumulate in the owning shard's block (folded into
    // stats_ every cycle); with one shard that block IS stats_.
    if (shards_ > 1) {
        shardStats_.reserve(shards_);
        for (unsigned s = 0; s < shards_; ++s)
            shardStats_.push_back(std::make_unique<NetworkStats>());
    }
    for (unsigned s = 0; s < shards_; ++s) {
        ShardCtx& ctx = shardCtx_[s];
        ctx.stats = shards_ > 1 ? shardStats_[s].get() : &stats_;
        ctx.injOut = InjectorOutbox(cfg_);
        ctx.rtrOut = RouterOutbox(cfg_);
        ctx.rcvOut = ReceiverOutbox(cfg_);
        const std::size_t range = ctx.end - ctx.begin;
        ctx.injReports.reserve(range);
        ctx.audit.kills.reserve(16);
    }
    routerPool_ = std::make_unique<Router::StatePool>(cfg_, n);
    routers_.reserve(n);
    injectors_.reserve(n);
    receivers_.reserve(n);
    unsigned shard = 0;
    for (NodeId id = 0; id < n; ++id) {
        if (id >= shardCtx_[shard].end)
            ++shard;
        // Counters, deliveries and outboxes are the owning shard's.
        ShardCtx& ctx = shardCtx_[shard];
        NetworkStats* blk = ctx.stats;
        routers_.push_back(std::make_unique<Router>(
            id, cfg_, *routing_, &blk->router, root.fork(),
            *routerPool_, id, ctx.rtrOut));
        injectors_.push_back(std::make_unique<Injector>(
            id, cfg_, *topo_, *routing_, blk, root.fork(), &ctx.injOut));
        receivers_.push_back(
            std::make_unique<Receiver>(id, cfg_, blk, &ctx, &ctx.rcvOut));
    }

    // Pre-size the hot-path containers so the steady state never
    // allocates, here on the constructing thread: each segment holds
    // the most its range can stage for one delivery cycle. Per node
    // that is one flit per injection channel and per network output
    // (one per channel per cycle), one ejection flit per ejection
    // channel, one credit per network input and per ejection channel,
    // one injection credit per injection channel, and one backward
    // kill or abort per input VC. Untouched capacity is never paged
    // in, so only the high-water mark costs memory.
    netPorts_ = routers_[0]->networkPorts();
    {
        const std::size_t inj = cfg_.injectionChannels;
        const std::size_t ej = cfg_.ejectionChannels;
        const std::size_t vcs = cfg_.numVcs;
        // A shard's remote events are its routers' hops, credits and
        // backward kills over channels that leave its range: one flit
        // or credit per such channel per cycle, one bkill per its VC.
        std::vector<std::size_t> cross(shards_, 0);
        for (unsigned s = 0; s < shards_; ++s) {
            const ShardCtx& ctx = shardCtx_[s];
            for (NodeId id = ctx.begin; id < ctx.end; ++id) {
                for (PortId p = 0; p < netPorts_; ++p) {
                    const NodeId nbr = neighborOf(id, p);
                    if (nbr != kInvalidNode &&
                        nbr - ctx.begin >= ctx.end - ctx.begin) {
                        ++cross[s];
                    }
                }
            }
        }
        for (Wave& w : buckets_) {
            w.segs = std::vector<Segment>(shards_);
            for (unsigned s = 0; s < shards_; ++s) {
                Segment& seg = w.segs[s];
                const std::size_t range =
                    shardCtx_[s].end - shardCtx_[s].begin;
                seg.flits.events.reserve(range * (inj + netPorts_));
                seg.recvFlits.events.reserve(range * ej);
                seg.credits.events.reserve(range * (netPorts_ + ej));
                seg.injCredits.events.reserve(range * inj);
                seg.bkills.events.reserve(range * (netPorts_ + ej) *
                                          vcs);
                seg.aborts.events.reserve(range * inj * vcs);
                seg.headers.reserve(range * (inj + netPorts_ + ej));
                seg.flits.remote.reserve(cross[s]);
                seg.credits.remote.reserve(cross[s]);
                seg.bkills.remote.reserve(cross[s] * vcs);
            }
        }
    }
    injWakeAt_.assign(n, kNeverCycle);
    rtrWakeAt_.assign(n, kNeverCycle);
    rcvWakeAt_.assign(n, kNeverCycle);
    // Everything starts asleep: at cycle 0 every component is idle,
    // and generate()/sendMessage()/deliver() wake whoever gets work.

    if (shards_ > 1) {
        Telemetry& reg = Telemetry::instance();
        shardBarrierNanos_ =
            reg.counter("sched.shard_barrier_wait_nanos");
        shardTickGauges_.reserve(shards_);
        for (unsigned s = 0; s < shards_; ++s) {
            shardTickGauges_.push_back(reg.gauge(
                "sched.shard_ticks." + std::to_string(s)));
        }
    }

    // The schedule fork happens last and only when configured, so
    // fault-free runs keep exactly the RNG streams they had before
    // dynamic faults existed.
    if (cfg_.hasDynamicFaults()) {
        dynamicFaults_ = true;
        schedule_ = std::make_unique<FaultSchedule>(
            FaultSchedule::fromConfig(cfg_, *topo_, root.fork()));
        for (NodeId id = 0; id < n; ++id)
            receivers_[id]->setDynamicFaults(true);
    }

#if CRNET_AUDIT_ENABLED
    audit_ = std::make_unique<Auditor>(cfg_, *topo_);
    for (NodeId id = 0; id < n; ++id) {
        routers_[id]->setAuditor(audit_.get());
        injectors_[id]->setAuditor(audit_.get());
        receivers_[id]->setAuditor(audit_.get());
    }
#endif

    // Observability sinks. All of these are null/off by default, so
    // an untraced run pays exactly one null-pointer branch per hook.
    if (!cfg_.traceFile.empty()) {
        trace_ =
            std::make_unique<Tracer>(cfg_.traceFile, cfg_.watchSpec);
        for (NodeId id = 0; id < n; ++id) {
            routers_[id]->setTracer(trace_.get());
            injectors_[id]->setTracer(trace_.get());
            receivers_[id]->setTracer(trace_.get());
        }
        for (ShardCtx& ctx : shardCtx_) {
            ctx.injTrace.reserve(64);
            ctx.rtrTrace.reserve(64);
            ctx.rcvTrace.reserve(64);
        }
    }
    if (cfg_.sampleInterval > 0)
        timeseries_ = std::make_unique<TimeSeries>(cfg_.sampleInterval);
    if (cfg_.heatmapEnabled) {
        for (NodeId id = 0; id < n; ++id)
            routers_[id]->setHeatTracking(true);
    }
    // Last: the crew's threads start once everything they touch
    // exists.
    if (shards_ > 1) {
        crew_ = std::make_unique<ShardCrew>(
            shards_, [this](unsigned s) { shardWorker(s); });
    }
}

Network::~Network() = default;

void
Network::deliverPrologue()
{
    Wave& cur = bucketOf(now_);
    if (dynamicFaults_ || faults_->effectiveTransientRate() > 0.0) {
        forEachInOrder(cur, &Segment::flits,
                       [this](PendingFlit& p, const Segment&) {
            if (p.inPort >= netPorts_)
                return;  // An injection hop crosses no wire.
            if (dynamicFaults_) {
                // A flit in flight on a channel that died under it is
                // gone — data counts as purged (conservation holds), a
                // kill token is absorbed (the death-time teardown
                // already re-issued a kill downstream of the break).
                const NodeId sender = neighborOf(p.node, p.inPort);
                if (sender == kInvalidNode ||
                    !faults_->linkOk(sender, oppositePort(p.inPort))) {
                    if (p.flit.isData()) {
                        stats_.flitsLostOnDeadLinks.inc();
                        CRNET_AUDIT_HOOK(audit_.get(),
                                         onFlitsPurged(1));
                        if (trace_ != nullptr) {
                            trace_->record(TraceEventKind::LinkLoss,
                                           p.flit.msg, p.node,
                                           p.flit.src, p.flit.dst,
                                           p.flit.attempt, p.inPort);
                        }
                    } else {
                        stats_.killsAbsorbedAtDeadLinks.inc();
                    }
                    p.node = kInvalidNode;  // No owner delivers it.
                    return;
                }
            }
            if (p.flit.isData())
                faults_->maybeCorrupt(p.flit);
        });
    }
    forEachInOrder(cur, &Segment::recvFlits,
                   [this](const PendingRecvFlit& p, const Segment& seg) {
        receivers_[p.node]->acceptFlit(p.ejChannel, p.vc, p.flit,
                                       headerOf(p, seg));
        wakeReceiver(p.node);
    });
    forEachInOrder(cur, &Segment::injCredits,
                   [this](const PendingInjCredit& p, const Segment&) {
        injectors_[p.node]->acceptCredit(p.injChannel, p.vc);
        wakeInjector(p.node);
    });
    forEachInOrder(cur, &Segment::aborts,
                   [this](const PendingAbort& p, const Segment&) {
        injectors_[p.node]->acceptAbort(p.injChannel, p.vc, p.msg);
        wakeInjector(p.node);
    });
}

void
Network::deliverOwned(unsigned s)
{
    Wave& cur = bucketOf(now_);
    NetworkStats& blk = *shardCtx_[s].stats;
    forEachAddressed(cur, &Segment::flits, s,
                     [this](const PendingFlit& p, const Segment& seg) {
        routers_[p.node]->acceptFlit(p.inPort, p.vc, p.flit,
                                     headerOf(p, seg), now_);
        wakeRouter(p.node);
    });
    // A credit or backward kill for an output whose wire died is lost
    // with the wire.
    const auto lost = [this, &blk](NodeId node, PortId out) {
        if (!dynamicFaults_ || out >= netPorts_ ||
            faults_->linkOk(node, out))
            return false;
        blk.controlAbsorbedAtDeadLinks.inc();
        return true;
    };
    forEachAddressed(cur, &Segment::credits, s,
                     [&](const PendingCredit& p, const Segment&) {
        if (lost(p.node, p.outPort))
            return;
        routers_[p.node]->acceptCredit(p.outPort, p.vc);
        wakeRouter(p.node);
    });
    forEachAddressed(cur, &Segment::bkills, s,
                     [&](const PendingBkill& p, const Segment&) {
        if (lost(p.node, p.outPort))
            return;
        routers_[p.node]->acceptBkill(p.outPort, p.vc);
        wakeRouter(p.node);
    });
}

void
Network::teardownDirectedLink(NodeId u, PortId p)
{
    routers_[u]->onOutputLinkDead(p, now_);
    wakeRouter(u);
    const NodeId d = topo_->neighbor(u, p);
    if (d != kInvalidNode) {
        routers_[d]->onInputLinkDead(oppositePort(p), now_);
        wakeRouter(d);
    }
}

void
Network::repairDirectedLink(NodeId u, PortId p)
{
    faults_->reviveDirectedLink(u, p);
    routers_[u]->onOutputLinkRepaired(p, now_);
    wakeRouter(u);
}

void
Network::applyOneFaultEvent(const FaultEvent& ev)
{
    stats_.faultEventsApplied.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::Fault, kInvalidMsg, ev.node,
                       kInvalidNode, kInvalidNode,
                       static_cast<std::uint16_t>(ev.kind), ev.port);
    }
    switch (ev.kind) {
    case FaultEventKind::DirectedLinkDeath:
        if (faults_->linkOk(ev.node, ev.port)) {
            faults_->killDirectedLink(ev.node, ev.port);
            teardownDirectedLink(ev.node, ev.port);
        }
        break;
    case FaultEventKind::LinkDeath: {
        if (faults_->linkOk(ev.node, ev.port)) {
            faults_->killDirectedLink(ev.node, ev.port);
            teardownDirectedLink(ev.node, ev.port);
        }
        const NodeId nbr = topo_->neighbor(ev.node, ev.port);
        const PortId opp = oppositePort(ev.port);
        if (nbr != kInvalidNode && faults_->linkOk(nbr, opp)) {
            faults_->killDirectedLink(nbr, opp);
            teardownDirectedLink(nbr, opp);
        }
        break;
    }
    case FaultEventKind::RouterFailStop: {
        const PortId net_ports = routers_[ev.node]->networkPorts();
        for (PortId p = 0; p < net_ports; ++p) {
            const NodeId nbr = topo_->neighbor(ev.node, p);
            if (nbr == kInvalidNode)
                continue;
            if (faults_->linkOk(ev.node, p)) {
                faults_->killDirectedLink(ev.node, p);
                teardownDirectedLink(ev.node, p);
            }
            const PortId opp = oppositePort(p);
            if (faults_->linkOk(nbr, opp)) {
                faults_->killDirectedLink(nbr, opp);
                teardownDirectedLink(nbr, opp);
            }
        }
        break;
    }
    case FaultEventKind::LinkRepair: {
        if (!faults_->linkOk(ev.node, ev.port))
            repairDirectedLink(ev.node, ev.port);
        const NodeId nbr = topo_->neighbor(ev.node, ev.port);
        const PortId opp = oppositePort(ev.port);
        if (nbr != kInvalidNode && !faults_->linkOk(nbr, opp))
            repairDirectedLink(nbr, opp);
        break;
    }
    case FaultEventKind::BurstStart:
        faults_->setBurstRate(ev.rate);
        break;
    case FaultEventKind::BurstEnd:
        faults_->clearBurstRate();
        break;
    }
}

void
Network::applyFaultEvents()
{
    dueEvents_.clear();
    schedule_->collectDue(now_, dueEvents_);
    for (const FaultEvent& ev : dueEvents_)
        applyOneFaultEvent(ev);
}

void
Network::injectFaultEvent(const FaultEvent& ev)
{
    if (!dynamicFaults_) {
        dynamicFaults_ = true;
        schedule_ = std::make_unique<FaultSchedule>();
        for (auto& rcv : receivers_)
            rcv->setDynamicFaults(true);
    }
    applyOneFaultEvent(ev);
    // A link teardown counts into the routers' shard blocks: fold them
    // now, so stats() is current and the blocks are zero between ticks.
    foldShardCounters();
}

void
Network::generate()
{
    if (!trafficEnabled_)
        return;
    const NodeId n = topo_->numNodes();
    // One arrival scan per cycle: the (overwhelmingly common)
    // no-arrival nodes stay inside one tight loop over the generator
    // stream, and makeFor() draws in between at each fired node.
    for (NodeId src = generator_->scanArrivals(0); src < n;
         src = generator_->scanArrivals(src + 1)) {
        if (injectors_[src]->queueFull()) {
            // Offered but not accepted; the pair sequence number is
            // not allocated, so receivers never see a phantom gap.
            stats_.sourceQueueDrops.inc();
            continue;
        }
        accept(generator_->makeFor(src, now_, measuring_));
    }
}

void
Network::accept(const PendingMessage& msg)
{
    injectors_[msg.src]->enqueue(msg);
    wakeInjector(msg.src);
    stats_.messagesGenerated.inc();
    if (ledger_ != nullptr)
        ledger_->onAccepted(msg);
    if (msg.measured) {
        stats_.messagesMeasured.inc();
        ++measuredCreated_;
    }
}

void
Network::collectInjector(const ShardCtx& ctx, Segment& next, NodeId n)
{
    const InjectorOutbox& out = ctx.injOut;
    for (const InjectedFlit& f : out.flits) {
        next.flits.events.push_back(PendingFlit{
            f.flit, n, static_cast<PortId>(netPorts_ + f.injChannel),
            f.vc, stageHeader(next, out.headers, f.header)});
    }
}

void
Network::collectRouter(const ShardCtx& ctx, Segment& next, Segment& far,
                       NodeId n)
{
    const RouterOutbox& r = ctx.rtrOut;
    const PortId net_ports = netPorts_;
    const auto away = [begin = ctx.begin,
                       span = ctx.end - ctx.begin](NodeId node) {
        return node - begin >= span;
    };

    for (const SentFlit& s : r.flits) {
        if (s.outPort < net_ports) {
            const NodeId nbr = neighborOf(n, s.outPort);
            if (nbr == kInvalidNode)
                panic("router ", n, " sent a flit off the network via "
                      "port ", s.outPort);
            far.flits.push(
                PendingFlit{s.flit, nbr, oppositePort(s.outPort), s.vc,
                            stageHeader(far, r.headers, s.header)},
                away(nbr));
        } else {
            next.recvFlits.events.push_back(PendingRecvFlit{
                s.flit, n,
                static_cast<std::uint16_t>(s.outPort - net_ports), s.vc,
                stageHeader(next, r.headers, s.header)});
        }
    }

    for (const SentCredit& c : r.credits) {
        if (c.inPort < net_ports) {
            const NodeId upstream = neighborOf(n, c.inPort);
            if (upstream == kInvalidNode)
                panic("credit to a nonexistent upstream at node ", n);
            far.credits.push(
                PendingCredit{upstream, oppositePort(c.inPort), c.vc},
                away(upstream));
        } else {
            next.injCredits.events.push_back(PendingInjCredit{
                n, static_cast<std::uint32_t>(c.inPort - net_ports),
                c.vc});
        }
    }

    for (const SentBkill& b : r.bkills) {
        if (b.inPort >= net_ports)
            panic("backward kill to an injection port must be an "
                  "abort");
        const NodeId upstream = neighborOf(n, b.inPort);
        if (upstream == kInvalidNode)
            panic("backward kill to a nonexistent upstream at node ",
                  n);
        far.bkills.push(
            PendingBkill{upstream, oppositePort(b.inPort), b.vc},
            away(upstream));
    }

    for (const SentAbort& a : r.aborts) {
        next.aborts.events.push_back(
            PendingAbort{n, a.injChannel, a.vc, a.msg});
    }
}

void
Network::collectReceiver(const ShardCtx& ctx, Segment& next, NodeId n)
{
    const ReceiverOutbox& rcv = ctx.rcvOut;
    for (const ReceiverCredit& c : rcv.credits) {
        next.credits.events.push_back(PendingCredit{
            n, static_cast<PortId>(netPorts_ + c.ejChannel), c.vc});
    }
    // Starvation-timeout bkills tear the stranded ejection
    // reservation down toward the source.
    for (const ReceiverCredit& b : rcv.bkills) {
        next.bkills.events.push_back(PendingBkill{
            n, static_cast<PortId>(netPorts_ + b.ejChannel), b.vc});
    }
}

std::uint64_t
Network::activityLevel() const
{
    return stats_.router.flitsForwarded.value() +
           stats_.router.killsForwarded.value() +
           stats_.router.bkillHops.value() +
           stats_.router.flitsPurged.value() +
           stats_.flitsInjected.value() +
           stats_.flitsConsumed.value();
}

// --- The cycle loop ---------------------------------------------------
//
// Determinism argument (docs/PERFORMANCE.md has the long form): the
// shard workers run only owner delivery, component ticks and collects.
// Each touches only the owning shard's components, wake entries and
// segments; every cross-component effect is staged in a wave bucket at
// least one cycle out, give-ups and commit samples in the injector's
// outboxes, deliveries in the shard context (the receivers' sink),
// trace records in per-shard buffers and audit deltas in per-shard
// stages. Counters are commutative and land in per-shard blocks. Owner
// delivery visits the current bucket in the serial order (run-major,
// shard-minor), so every router sees its events in the one-shard
// order, and it neither records nor draws: every delivery that does
// stays in the prologue. Only the Network applies ledger calls and accumulator adds, and every
// order-sensitive replay below iterates shard-major over contiguous
// ascending ranges, i.e. in global node order — the one-shard order —
// so stats, traces, wave contents, wake tables and snapshots are
// byte-identical at every shard count.
//
// A component's wake entry is rewritten right after its tick; no tick
// wakes another component (all cross-component wakes happen at
// delivery time, next cycle), so rewriting in place is safe and the
// node-order scan matches the exhaustive sweep's tick order exactly.

void
Network::profileLap(TickPhase phase, std::uint64_t& pt)
{
    if (!profTimed_)
        return;
    const std::uint64_t t = TickProfiler::stamp();
    prof_->add(phase, t - pt);
    pt = t;
}

void
Network::applyInjectorReports(NodeId id)
{
    const Injector& inj = *injectors_[id];
    if (ledger_ != nullptr) {
        for (const FailedMessage& f : inj.failed)
            ledger_->onRefused(f.msg, f.at);
    }
    for (const CommittedSample& c : inj.committedStats) {
        stats_.attempts.add(c.attempts);
        stats_.padOverhead.add(c.padFrac);
    }
}

void
Network::applyDeliveries(ShardCtx& ctx)
{
    for (const DeliveredMessage& d : ctx.deliveries) {
        if (d.measured) {
            const auto total =
                static_cast<double>(d.deliveredAt - d.createdAt);
            stats_.totalLatency.add(total);
            stats_.latencyHist.add(total);
            stats_.netLatency.add(static_cast<double>(
                d.deliveredAt - d.headInjectedAt));
        }
        if (ledger_ != nullptr)
            ledger_->onDelivered(d);
        if (manualPending_.erase(d.id) != 0)
            manualDelivered_[d.id] = d;
    }
    ctx.deliveries.clear();
}

void
Network::shardWorker(unsigned s)
{
    ShardCtx& ctx = shardCtx_[s];
    // Shard 0 runs on the ticking thread, the profiler's.
    std::uint64_t pt = s == 0 && profTimed_ ? TickProfiler::stamp() : 0;
    const auto lap = [&](TickPhase phase) {
        if (s == 0)
            profileLap(phase, pt);
    };
    Auditor::setThreadStage(&ctx.audit);
    deliverOwned(s);
    ctx.injReports.clear();
    lap(TickPhase::Deliver);
    std::uint64_t ticked = 0;
    const Cycle latency = cfg_.channelLatency;
    Segment& next = segmentIn(s, 1);
    Segment& far = segmentIn(s, latency);

    Tracer::setThreadStage(&ctx.injTrace);
    next.openRun();
    for (NodeId id = ctx.begin; id < ctx.end; ++id) {
        if (injWakeAt_[id] > now_)
            continue;
        Injector& inj = *injectors_[id];
        inj.tick(now_);
        ++ticked;
        collectInjector(ctx, next, id);
        if (!inj.failed.empty() || !inj.committedStats.empty())
            ctx.injReports.push_back(id);
        injWakeAt_[id] = inj.nextEventCycle(now_);
    }
    lap(TickPhase::Injectors);

    Tracer::setThreadStage(&ctx.rtrTrace);
    next.openRun();
    if (latency > 1)
        far.openRun();
    // Routers have no future-only deadlines: any held flit, allocation
    // or pending kill needs the very next tick, so a busy router stays
    // due and an idle() one (a mask test) sleeps until a delivery.
    for (NodeId id = ctx.begin; id < ctx.end; ++id) {
        if (rtrWakeAt_[id] > now_)
            continue;
        Router& r = *routers_[id];
        r.tick(now_);
        ++ticked;
        collectRouter(ctx, next, far, id);
        if (r.idle())
            rtrWakeAt_[id] = kNeverCycle;
    }
    lap(TickPhase::Routers);

    Tracer::setThreadStage(&ctx.rcvTrace);
    next.openRun();
    for (NodeId id = ctx.begin; id < ctx.end; ++id) {
        if (rcvWakeAt_[id] > now_)
            continue;
        Receiver& rcv = *receivers_[id];
        rcv.tick(now_);
        ++ticked;
        collectReceiver(ctx, next, id);
        rcvWakeAt_[id] = rcv.nextEventCycle(now_);
    }
    lap(TickPhase::Receivers);

    ctx.ticks += ticked;
    Tracer::setThreadStage(nullptr);
    Auditor::setThreadStage(nullptr);
}

void
Network::mergeShards(std::uint64_t& pt)
{
#if CRNET_AUDIT_ENABLED
    if (audit_ != nullptr) {
        // Conservation counters, flit checks and the kill-token set
        // are order-insensitive (issuedKills_ is an ordered set).
        for (ShardCtx& ctx : shardCtx_)
            audit_->foldStage(ctx.audit);
    }
#endif
    // Phase-major, shard-minor = the serial order. The trace replay
    // re-enters record() with no stage installed, so the watch filter
    // (whose pair-adoption mutates watchedMsgs_) runs in deterministic
    // order; Tracer::now_ is constant through the cycle, so the
    // re-recorded timestamps match the staged ones.
    const auto replay = [this](std::vector<TraceEvent>& staged) {
        for (const TraceEvent& e : staged)
            trace_->record(e.kind, e.msg, e.node, e.src, e.dst,
                           e.attempt, e.arg);
        staged.clear();
    };
    for (ShardCtx& ctx : shardCtx_) {
        replay(ctx.injTrace);
        for (const NodeId id : ctx.injReports)
            applyInjectorReports(id);
    }
    profileLap(TickPhase::Injectors, pt);
    for (ShardCtx& ctx : shardCtx_)
        replay(ctx.rtrTrace);
    profileLap(TickPhase::Routers, pt);
    for (ShardCtx& ctx : shardCtx_) {
        replay(ctx.rcvTrace);
        applyDeliveries(ctx);
    }
    foldShardCounters();
    profileLap(TickPhase::Receivers, pt);
}

void
Network::foldShardCounters()
{
    for (auto& blk : shardStats_)
        foldCounters(stats_, *blk);
}

void
Network::tickComponents()
{
    if (crew_ == nullptr) {
        shardWorker(0);
    } else {
        shardBarrierNanos_->fetch_add(crew_->run(),
                                      std::memory_order_relaxed);
        // The crew's join provides the happens-before for reading the
        // workers' tick totals.
        for (unsigned s = 0; s < shardTickGauges_.size(); ++s) {
            shardTickGauges_[s]->store(shardCtx_[s].ticks,
                                       std::memory_order_relaxed);
        }
    }
    // The join wait is billed to no phase.
    std::uint64_t pt = profTimed_ ? TickProfiler::stamp() : 0;
    mergeShards(pt);
    bucketOf(now_).clear();
}

void
Network::tick()
{
    // Self-profiler: one tick in every stride is clock-stamped
    // phase-by-phase (profTimed_); audit and sampling work is rare
    // enough to be timed exactly. Everything here is observability
    // only — stamps never feed back into simulation state.
    profTimed_ = prof_ != nullptr && prof_->armTick();
    std::uint64_t pt = profTimed_ ? TickProfiler::stamp() : 0;

    CRNET_AUDIT_HOOK(audit_.get(), beginCycle(now_));
    if (trace_ != nullptr)
        trace_->beginCycle(now_);
    if (dynamicFaults_ && schedule_ != nullptr)
        applyFaultEvents();
    if (!activeSched_) {
        // sched=sweep: every component ticks every cycle — including
        // the first one after a restore — so sweep stays an
        // independent check of the wake rules.
        std::fill(injWakeAt_.begin(), injWakeAt_.end(), 0);
        std::fill(rtrWakeAt_.begin(), rtrWakeAt_.end(), 0);
        std::fill(rcvWakeAt_.begin(), rcvWakeAt_.end(), 0);
    }
    // Injector-bound events go before generate(): a stale abort can
    // push its message back onto the source queue, and generate()
    // reads queueFull(). The shard workers deliver the router-bound
    // rest to their own ranges.
    deliverPrologue();
    // Cycle-open bookkeeping (faults, trace) rides with the delivery
    // phase.
    profileLap(TickPhase::Deliver, pt);
    generate();
    profileLap(TickPhase::Generate, pt);

    tickComponents();

    const std::uint64_t level = activityLevel();
    if (level != lastActivityLevel_) {
        lastActivityLevel_ = level;
        lastActivity_ = now_;
    }
    if (dynamicFaults_ && !forensicsDumped_ && deadlocked()) {
        forensicsDumped_ = true;
        reportDeadlockForensics();
    }
#if CRNET_AUDIT_ENABLED
    if (audit_ != nullptr && now_ % cfg_.auditInterval == 0) {
        const std::uint64_t a0 =
            prof_ != nullptr ? TickProfiler::stamp() : 0;
        runAuditSweep();
        if (prof_ != nullptr)
            prof_->add(TickPhase::Audit, TickProfiler::stamp() - a0);
    }
#endif
    if (timeseries_ != nullptr &&
        (now_ + 1) % timeseries_->interval() == 0) {
        const std::uint64_t s0 =
            prof_ != nullptr ? TickProfiler::stamp() : 0;
        takeSample();
        if (prof_ != nullptr)
            prof_->add(TickPhase::Sample, TickProfiler::stamp() - s0);
    }
    if (profTimed_)
        sampleTelemetryGauges();
    ++now_;
}

void
Network::reportDeadlockForensics()
{
    std::ostringstream os;
    dumpForensics(os);
    warn("deadlock watchdog fired under dynamic faults\n", os.str());
}

void
Network::sampleGauges(std::uint64_t& in_flight,
                      std::uint64_t& buffered) const
{
    const NodeId n = topo_->numNodes();
    if (activeSched_) {
        // Post-sweep, the entries due next cycle cover every nonzero
        // gauge: a sleeping injector has no active worm, and sleeping
        // routers/receivers buffer nothing (buffered flits always
        // demand the next tick).
        for (NodeId id = 0; id < n; ++id) {
            if (dueNext(injWakeAt_[id]))
                in_flight += injectors_[id]->activeWorms();
            if (dueNext(rtrWakeAt_[id]))
                buffered += routers_[id]->bufferedFlits();
            if (dueNext(rcvWakeAt_[id]))
                buffered += receivers_[id]->bufferedFlits();
        }
    } else {
        for (NodeId id = 0; id < n; ++id) {
            in_flight += injectors_[id]->activeWorms();
            buffered += routers_[id]->bufferedFlits();
            buffered += receivers_[id]->bufferedFlits();
        }
    }
}

void
Network::takeSample()
{
    std::uint64_t in_flight = 0;
    std::uint64_t buffered = 0;
    sampleGauges(in_flight, buffered);
    timeseries_->sample(now_ + 1, stats_, in_flight, buffered);
}

std::vector<TimeSeriesSample>
Network::timeseriesSamples() const
{
    if (timeseries_ == nullptr)
        return {};
    std::vector<TimeSeriesSample> out = timeseries_->samples();
    // A run that stops mid-interval still reports its tail cycles:
    // flush a final partial sample covering everything since the last
    // boundary. peekTail leaves the differencing baselines untouched,
    // so a run that later continues (e.g. after a snapshot restore)
    // samples exactly as if no one had peeked.
    const Cycle last = out.empty() ? 0 : out.back().at;
    if (now_ > last) {
        std::uint64_t in_flight = 0;
        std::uint64_t buffered = 0;
        sampleGauges(in_flight, buffered);
        out.push_back(
            timeseries_->peekTail(now_, stats_, in_flight, buffered));
    }
    return out;
}

std::shared_ptr<const HeatmapData>
Network::collectHeatmap() const
{
    if (!cfg_.heatmapEnabled)
        return nullptr;
    auto hm = std::make_shared<HeatmapData>();
    const NodeId n = topo_->numNodes();
    const PortId net_ports = routers_[0]->networkPorts();
    hm->radixK = cfg_.radixK;
    hm->dims = cfg_.dimensionsN;
    hm->netPorts = net_ports;
    hm->cycles = now_;
    hm->occupancyIntegral.resize(n);
    hm->blockedCycles.assign(
        static_cast<std::size_t>(n) * net_ports, 0);
    hm->forwarded.assign(static_cast<std::size_t>(n) * net_ports, 0);
    for (NodeId id = 0; id < n; ++id) {
        const Router& r = *routers_[id];
        hm->occupancyIntegral[id] = r.heatOccupancyIntegral();
        for (PortId p = 0; p < net_ports; ++p) {
            const std::size_t at =
                static_cast<std::size_t>(id) * net_ports + p;
            hm->forwarded[at] = r.heatForwarded(p);
            hm->blockedCycles[at] = r.heatBlocked(p);
        }
    }
    return hm;
}

void
Network::runAuditSweep()
{
    AuditSnapshot snap;
    snap.now = now_;
    const NodeId n = topo_->numNodes();
    const PortId net_ports = routers_[0]->networkPorts();
    const std::uint32_t vcs = cfg_.numVcs;

    // Edge table at fixed indices — network edges (keyed by their
    // downstream input port), then injection, then ejection — so the
    // wave scan below can address edges directly.
    const std::size_t net_edges =
        static_cast<std::size_t>(n) * net_ports * vcs;
    const std::size_t inj_edges =
        static_cast<std::size_t>(n) * cfg_.injectionChannels * vcs;
    const std::size_t ej_edges =
        static_cast<std::size_t>(n) * cfg_.ejectionChannels * vcs;
    snap.edges.resize(net_edges + inj_edges + ej_edges);

    const auto net_idx = [&](NodeId node, PortId in_port, VcId vc) {
        return (static_cast<std::size_t>(node) * net_ports + in_port) *
                   vcs +
               vc;
    };
    const auto inj_idx = [&](NodeId node, std::uint32_t ch, VcId vc) {
        return net_edges +
               (static_cast<std::size_t>(node) *
                    cfg_.injectionChannels +
                ch) * vcs +
               vc;
    };
    const auto ej_idx = [&](NodeId node, std::uint32_t ch, VcId vc) {
        return net_edges + inj_edges +
               (static_cast<std::size_t>(node) *
                    cfg_.ejectionChannels +
                ch) * vcs +
               vc;
    };

    for (NodeId id = 0; id < n; ++id) {
        const Router& r = *routers_[id];
        snap.bufferedFlits += r.bufferedFlits();
        snap.bufferedFlits += receivers_[id]->bufferedFlits();

        for (PortId p = 0; p < net_ports; ++p) {
            const NodeId up = topo_->neighbor(id, p);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[net_idx(id, p, v)];
                e.kind = AuditEdgeKind::Network;
                e.node = id;
                e.port = p;
                e.vc = v;
                if (up == kInvalidNode) {
                    e.skip = true;  // Mesh boundary: no channel here.
                    continue;
                }
                if (dynamicFaults_ &&
                    !faults_->linkOk(up, oppositePort(p))) {
                    e.skip = true;  // Dead wire: ledger mid-teardown.
                    continue;
                }
                const Router::OutputProbe o =
                    routers_[up]->outputProbe(oppositePort(p), v);
                e.credits = o.credits;
                e.occupancy = r.inputOccupancy(p, v);
                e.skip = o.quarantineUntil > now_ ||
                         r.inputKillPending(p, v);
            }
        }
        for (std::uint32_t ch = 0; ch < cfg_.injectionChannels;
             ++ch) {
            const PortId p = static_cast<PortId>(r.injBase() + ch);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[inj_idx(id, ch, v)];
                e.kind = AuditEdgeKind::Injection;
                e.node = id;
                e.port = ch;
                e.vc = v;
                e.credits = injectors_[id]->slotCredits(ch, v);
                e.occupancy = r.inputOccupancy(p, v);
                e.skip = injectors_[id]->slotInCooldown(ch, v) ||
                         r.inputKillPending(p, v);
            }
        }
        for (std::uint32_t ch = 0; ch < cfg_.ejectionChannels; ++ch) {
            const PortId p = static_cast<PortId>(r.ejBase() + ch);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[ej_idx(id, ch, v)];
                e.kind = AuditEdgeKind::Ejection;
                e.node = id;
                e.port = ch;
                e.vc = v;
                const Router::OutputProbe o = r.outputProbe(p, v);
                e.credits = o.credits;
                e.occupancy = receivers_[id]->occupancy(ch, v);
                e.skip = o.quarantineUntil > now_;
            }
        }
    }

    // In-flight events still sitting in the delivery waves, every
    // segment. Kill tokens ride the control wires and consume no
    // credits, so only data flits count toward the ledgers.
    for (const Wave& w : buckets_) {
        for (const Segment& seg : w.segs) {
            for (const PendingFlit& p : seg.flits.events) {
                if (!p.flit.isData())
                    continue;
                ++snap.inFlightFlits;
                if (p.inPort < net_ports) {
                    ++snap.edges[net_idx(p.node, p.inPort, p.vc)]
                          .inFlightFlits;
                } else {
                    ++snap.edges[inj_idx(p.node,
                                         static_cast<std::uint32_t>(
                                             p.inPort - net_ports),
                                         p.vc)]
                          .inFlightFlits;
                }
            }
            for (const PendingRecvFlit& p : seg.recvFlits.events) {
                if (!p.flit.isData())
                    continue;
                ++snap.inFlightFlits;
                ++snap.edges[ej_idx(p.node, p.ejChannel, p.vc)]
                      .inFlightFlits;
            }
            for (const PendingCredit& c : seg.credits.events) {
                if (c.outPort < net_ports) {
                    const NodeId down =
                        topo_->neighbor(c.node, c.outPort);
                    if (down != kInvalidNode) {
                        ++snap.edges[net_idx(down,
                                             oppositePort(c.outPort),
                                             c.vc)]
                              .inFlightCredits;
                    }
                } else {
                    ++snap.edges[ej_idx(c.node,
                                        static_cast<std::uint32_t>(
                                            c.outPort - net_ports),
                                        c.vc)]
                          .inFlightCredits;
                }
            }
            for (const PendingInjCredit& c : seg.injCredits.events)
                ++snap.edges[inj_idx(c.node, c.injChannel, c.vc)]
                      .inFlightCredits;
            // A kill/abort still in flight means its edge's ledger is
            // legitimately mid-teardown; skip those this sweep.
            for (const PendingBkill& b : seg.bkills.events) {
                const NodeId down = topo_->neighbor(b.node, b.outPort);
                if (down != kInvalidNode) {
                    snap.edges[net_idx(down, oppositePort(b.outPort),
                                       b.vc)]
                        .skip = true;
                }
            }
            for (const PendingAbort& a : seg.aborts.events)
                snap.edges[inj_idx(a.node, a.injChannel, a.vc)].skip =
                    true;
        }
    }

    audit_->sweep(snap);
}

void
Network::run(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        tick();
}

void
Network::attachProfiler(TickProfiler* prof)
{
    prof_ = prof;
    profTimed_ = false;
    if (prof == nullptr) {
        gaugeInjAwake_ = gaugeRtrAwake_ = gaugeRcvAwake_ = nullptr;
        gaugeWaveOcc_ = gaugeRngMessages_ = nullptr;
        return;
    }
    Telemetry& reg = Telemetry::instance();
    gaugeInjAwake_ = reg.gauge("sched.injectors_awake");
    gaugeRtrAwake_ = reg.gauge("sched.routers_awake");
    gaugeRcvAwake_ = reg.gauge("sched.receivers_awake");
    gaugeWaveOcc_ = reg.gauge("sched.wave_ring_occupancy");
    gaugeRngMessages_ = reg.gauge("rng.messages_generated");
}

void
Network::sampleTelemetryGauges()
{
    const auto awake = [this](const std::vector<Cycle>& wake_at) {
        return static_cast<std::uint64_t>(
            std::count_if(wake_at.begin(), wake_at.end(),
                          [this](Cycle at) { return dueNext(at); }));
    };
    gaugeInjAwake_->store(awake(injWakeAt_), std::memory_order_relaxed);
    gaugeRtrAwake_->store(awake(rtrWakeAt_), std::memory_order_relaxed);
    gaugeRcvAwake_->store(awake(rcvWakeAt_), std::memory_order_relaxed);
    std::uint64_t occ = 0;
    for (const Wave& w : buckets_)
        for (const Segment& seg : w.segs)
            occ += seg.size();
    gaugeWaveOcc_->store(occ, std::memory_order_relaxed);
    gaugeRngMessages_->store(generator_->generatedCount(),
                             std::memory_order_relaxed);
}

MsgId
Network::sendMessage(NodeId src, NodeId dst, std::uint32_t payload_len,
                     bool measured)
{
    if (src >= topo_->numNodes() || dst >= topo_->numNodes())
        fatal("sendMessage: node out of range");
    // The head is payload flit 0: an empty message would go out
    // without a tail under protocol=none and never free its slot.
    if (payload_len == 0)
        fatal("sendMessage: payload_len must be >= 1");
    if (injectors_[src]->queueFull())
        return kInvalidMsg;  // Before a pair sequence is allocated.
    const PendingMessage m = generator_->makeMessage(src, dst, payload_len,
                                                     now_, measured);
    accept(m);
    manualPending_.insert(m.id);
    return m.id;
}

bool
Network::isDelivered(MsgId id) const
{
    return manualDelivered_.count(id) != 0;
}

const DeliveredMessage*
Network::deliveryRecord(MsgId id) const
{
    auto it = manualDelivered_.find(id);
    return it == manualDelivered_.end() ? nullptr : &it->second;
}

bool
Network::deadlocked() const
{
    if (quiescent())
        return false;
    return now_ - lastActivity_ > cfg_.deadlockThreshold;
}

bool
Network::quiescent() const
{
    for (const Wave& w : buckets_)
        if (!w.empty())
            return false;
    for (const auto& inj : injectors_)
        if (!inj->idle())
            return false;
    for (const auto& r : routers_)
        if (!r->idle())
            return false;
    for (const auto& rcv : receivers_)
        if (!rcv->idle())
            return false;
    return true;
}

void
Network::dumpOccupancy(std::ostream& os) const
{
    os << "buffer occupancy at cycle " << now_ << " (flits per "
       << "router):\n";
    if (cfg_.dimensionsN == 2) {
        const std::uint32_t k = cfg_.radixK;
        // Row y printed top-down so the grid reads like a map.
        for (std::uint32_t yy = k; yy-- > 0;) {
            os << "  y=" << std::setw(2) << yy << " |";
            for (std::uint32_t xx = 0; xx < k; ++xx) {
                const NodeId id = xx + yy * k;
                os << std::setw(4) << routers_[id]->bufferedFlits();
            }
            os << "\n";
        }
        return;
    }
    for (NodeId id = 0; id < topo_->numNodes(); ++id) {
        const std::uint64_t n = routers_[id]->bufferedFlits();
        if (n > 0)
            os << "  node " << id << ": " << n << "\n";
    }
}

void
Network::dumpForensics(std::ostream& os) const
{
    os << "=== forensics at cycle " << now_ << " (last activity "
       << lastActivity_ << ") ===\n";

    const auto dead = faults_->deadLinks();
    os << "dead links (" << dead.size() << "):\n";
    for (const DeadLink& d : dead) {
        os << "  node " << d.node << " port " << d.port << " ("
           << (d.kind == DeadLinkKind::Bidirectional ? "bidirectional"
                                                     : "directed")
           << ")\n";
    }

    // Stuck input VCs, and the oldest blocked header (the worm most
    // likely anchoring a dependency cycle).
    NodeId oldest_node = kInvalidNode;
    PortId oldest_port = kInvalidPort;
    Cycle oldest_at = now_;
    os << "non-idle input VCs:\n";
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        const Router& r = *routers_[id];
        for (PortId p = 0; p < r.numInPorts(); ++p) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const Router::InputProbe ip = r.inputProbe(p, v);
                if (ip.state == Router::VcState::Idle &&
                    ip.buffered == 0 && !ip.killPending) {
                    continue;
                }
                os << "  node " << id << " in " << p << " vc "
                   << static_cast<int>(v) << ": "
                   << (ip.state == Router::VcState::Active
                           ? "Active"
                           : ip.state == Router::VcState::Routing
                                 ? "Routing"
                                 : "Idle")
                   << " msg " << ip.msg << " attempt " << ip.attempt
                   << " buffered " << ip.buffered << " stall "
                   << ip.stallCycles;
                if (ip.killPending)
                    os << " kill-pending";
                if (ip.state == Router::VcState::Active) {
                    os << " -> out " << ip.outPort << " vc "
                       << static_cast<int>(ip.outVc);
                }
                os << " (head at " << ip.headArrivedAt << ")\n";
                if (ip.state == Router::VcState::Routing &&
                    ip.headArrivedAt < oldest_at) {
                    oldest_at = ip.headArrivedAt;
                    oldest_node = id;
                    oldest_port = p;
                }
            }
        }
    }
    if (oldest_node != kInvalidNode) {
        os << "oldest blocked header: node " << oldest_node << " in "
           << oldest_port << " waiting since " << oldest_at << "\n";
    }

    os << "active injector slots:\n";
    for (NodeId id = 0; id < n; ++id) {
        for (std::uint32_t ch = 0; ch < cfg_.injectionChannels; ++ch) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const Injector::SlotProbe sp =
                    injectors_[id]->slotProbe(ch, v);
                if (!sp.active)
                    continue;
                os << "  node " << id << " ch " << ch << " vc "
                   << static_cast<int>(v) << ": msg " << sp.msg
                   << " -> " << sp.dst << " attempt " << sp.attempt
                   << " seq " << sp.nextSeq << "/" << sp.wireLen
                   << " credits " << sp.credits << " stall "
                   << sp.stallCycles << "\n";
            }
        }
    }

    os << "open assemblies:\n";
    for (NodeId id = 0; id < n; ++id) {
        for (const Receiver::AssemblyProbe& ap :
             receivers_[id]->openAssemblies()) {
            os << "  node " << id << ": msg " << ap.msg << " from "
               << ap.src << " attempt " << ap.attempt << " seq "
               << ap.nextSeq << "/" << ap.payloadLen
               << " last flit at " << ap.lastFlitAt << "\n";
        }
    }

    dumpOccupancy(os);
}

Network::WaveCensus
Network::inFlight(NodeId begin, NodeId end) const
{
    WaveCensus c;
    const auto count = [begin, end](const auto& lane, std::uint64_t& n) {
        for (const auto& e : lane.events)
            n += e.node >= begin && e.node < end ? 1 : 0;
    };
    for (const Wave& w : buckets_) {
        for (const Segment& seg : w.segs) {
            count(seg.flits, c.flits);
            count(seg.credits, c.credits);
            count(seg.bkills, c.bkills);
        }
    }
    return c;
}

bool
Network::measuredDrained() const
{
    return stats_.measuredDelivered.value() +
               stats_.measuredFailed.value() >=
           measuredCreated_;
}

// --- Checkpoint capture walk (the rest is in network_state.cc) --------

std::vector<Network::ListedBucket>
Network::listBuckets() const
{
    std::vector<ListedBucket> listed(buckets_.size());
    for (std::size_t i = 0; i < listed.size(); ++i) {
        const Wave& wave = bucketOf(now_ + i);
        ListedBucket& into = listed[i];
        const auto headed = [](auto& lane) {
            return [&lane](const auto& e, const Segment& seg) {
                lane.push_back({e, e.header != kNoHeader
                                       ? seg.headers[e.header]
                                       : WormHeader{}});
            };
        };
        const auto plain = [](auto& lane) {
            return [&lane](const auto& e, const Segment&) {
                lane.push_back(e);
            };
        };
        forEachInOrder(wave, &Segment::flits, headed(into.flits));
        forEachInOrder(wave, &Segment::recvFlits, headed(into.recvFlits));
        forEachInOrder(wave, &Segment::credits, plain(into.credits));
        forEachInOrder(wave, &Segment::injCredits, plain(into.injCredits));
        forEachInOrder(wave, &Segment::bkills, plain(into.bkills));
        forEachInOrder(wave, &Segment::aborts, plain(into.aborts));
    }
    return listed;
}

} // namespace crnet
