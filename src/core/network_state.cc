/**
 * @file
 * Network checkpoint/restore: the snapshot field list (serialize()),
 * its capture and restore entry points, and the restore-only steps.
 * listBuckets(), the capture walk over the wave buckets, stays in
 * network.cc beside the other wave walkers. This code lives apart
 * from the tick's translation unit on purpose: instantiating the
 * field lists there changed GCC's inlining of the shard worker
 * (once measured at ~4% of paper_lowload). For the same reason the
 * component field lists are defined in their headers and instantiated
 * here, not in the component sources.
 */

#include <type_traits>
#include <vector>

#include "src/core/network.hh"
#include "src/core/timeseries.hh"
#include "src/fault/campaign.hh"
#include "src/sim/log.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"

namespace crnet {

// --- Checkpoint/restore ------------------------------------------------
//
// serialize() is the one field list: its order is the payload layout,
// and test_snapshot_pins.cc pins the bytes (docs/ROBUSTNESS.md). Keyed
// tables are ordered containers, serialized in their own ascending key
// order.

namespace {

/** Zero every Counter of a shard block (snapshot restore). */
void
resetCounters(NetworkStats& blk)
{
    for (const auto field : kRouterCounters)
        (blk.router.*field).reset();
    for (const auto field : kNetworkCounters)
        (blk.*field).reset();
}

/** `obj` with `self`'s constness (smart pointers do not carry it). */
template <typename Self, typename T>
std::conditional_t<std::is_const_v<Self>, const T&, T&>
like(Self&, T& obj)
{
    return obj;
}

} // namespace

bool
Network::ListedBucket::empty() const
{
    return flits.empty() && recvFlits.empty() && credits.empty() &&
           injCredits.empty() && bkills.empty() && aborts.empty();
}

template <typename Self, typename Io, typename Buckets>
void
Network::serialize(Self& self, Io& io, Buckets& listed)
{
    NetworkStats::serialize(self.stats_, io);
    FaultModel::serialize(like(self, *self.faults_), io);
    TrafficGenerator::serialize(like(self, *self.generator_), io);
    for (const auto& r : self.routers_)
        Router::serialize(like(self, *r), io);
    for (const auto& inj : self.injectors_)
        Injector::serialize(like(self, *inj), io);
    for (const auto& rcv : self.receivers_)
        Receiver::serialize(like(self, *rcv), io);

    // The live window's wave buckets in cycle order from now_, each
    // in the serial order, so the bytes depend on neither the shard
    // count nor which bucket holds which cycle.
    io.same(
        [&](std::uint64_t saved) {
            panic("wave-bucket count mismatch on restore: saved ",
                  saved, ", have ", self.buckets_.size());
        },
        std::uint64_t{self.buckets_.size()});
    const PortId net_ports = self.netPorts_;
    for (auto& bucket : listed) {
        io.seq(bucket.flits, [&](auto& e) {
            io.u32(e.event.node);
            io.u16(e.event.inPort);
            io.u16(e.event.vc);
            WireFlit::serialize(e.event.flit, io);
            if (e.event.flit.isHead())
                WormHeader::serialize(e.header, io);
            io.same(
                [&](bool) {
                    panic("restored flit's network-hop bit disagrees "
                          "with its input port ", e.event.inPort);
                },
                e.event.inPort < net_ports);
        });
        io.seq(bucket.recvFlits, [&](auto& e) {
            io.u32(e.event.node);
            io.u32(e.event.ejChannel);
            io.u16(e.event.vc);
            WireFlit::serialize(e.event.flit, io);
            if (e.event.flit.isHead())
                WormHeader::serialize(e.header, io);
        });
        io.seq(bucket.credits, [&](auto& e) {
            io.u32(e.node);
            io.u16(e.outPort);
            io.u16(e.vc);
        });
        io.seq(bucket.injCredits, [&](auto& e) {
            io.u32(e.node);
            io.u32(e.injChannel);
            io.u16(e.vc);
        });
        io.seq(bucket.bkills, [&](auto& e) {
            io.u32(e.node);
            io.u16(e.outPort);
            io.u16(e.vc);
        });
        io.seq(bucket.aborts, [&](auto& e) {
            io.u32(e.node);
            io.u32(e.injChannel);
            io.u16(e.vc);
            io.u64(e.msg);
        });
    }

    // Active-set scheduler: the wake tables, the whole of its state.
    for (auto* wake_at :
         {&self.injWakeAt_, &self.rtrWakeAt_, &self.rcvWakeAt_})
        for (auto& at : *wake_at)
            io.u64(at);

    io.u64(self.now_);
    io.b(self.trafficEnabled_);
    io.b(self.measuring_);
    io.u64(self.measuredCreated_);
    io.u64(self.lastActivity_);
    io.u64(self.lastActivityLevel_);
    io.b(self.forensicsDumped_);

    io.b(self.dynamicFaults_);
    // Runtime-armed dynamic faults (injectFaultEvent) may have created
    // a schedule the config alone would not.
    io.optional(self.schedule_, [&](auto& sched) {
        FaultSchedule::serialize(sched, io);
    });
    io.sidecar(self.ledger_, "ledger", true, [](auto& sub, auto& ledger) {
        DeliveryLedger::serialize(ledger, sub);
    });
    io.same(
        [&](bool saved) {
            panic("audit-build mismatch on restore (saved ", saved,
                  ", have ", self.audit_ != nullptr, ")");
        },
        self.audit_ != nullptr);
    if (self.audit_ != nullptr)
        Auditor::serialize(like(self, *self.audit_), io);
    // The restore side may legitimately run without a tracer
    // (traceFile is excluded from the fingerprint).
    io.sidecar(self.trace_, "tracer", false, [](auto& sub, auto& trace) {
        Tracer::serialize(trace, sub);
    });
    io.same(
        [&](bool saved) {
            panic("timeseries presence mismatch on restore (saved ",
                  saved, ", have ", self.timeseries_ != nullptr,
                  "); sample_interval is part of the fingerprint");
        },
        self.timeseries_ != nullptr);
    if (self.timeseries_ != nullptr)
        TimeSeries::serialize(like(self, *self.timeseries_), io);

    io.sorted(self.manualDelivered_, [&](auto& key, auto& d) {
        io.u64(key);
        io.u64(d.id);
        io.u32(d.src);
        io.u32(d.dst);
        io.u32(d.payloadLen);
        io.u32(d.pairSeq);
        io.u64(d.createdAt);
        io.u64(d.headInjectedAt);
        io.u64(d.deliveredAt);
        io.u16(d.attempts);
        io.b(d.measured);
        io.b(d.corrupted);
    });
    io.sorted(self.manualPending_, [&](auto& key) { io.u64(key); });
}

void
Network::placeBuckets(std::vector<ListedBucket>& listed)
{
    // A restored bucket is the first run of its wave (every segment
    // opens that run, so runs stay aligned): its saved order is the
    // serial order, and run-major delivery keeps it. Its router-bound
    // events go into shard 0's segment, those for other shards' ranges
    // also on shard 0's remote lists. Each NIC-bound event goes into
    // the segment of the shard owning its node, which delivers it
    // (deliverNic), so no shard touches another shard's NICs; in the
    // saved order they are ascending by node, so every segment keeps
    // them in the order its own routers would have staged them. A
    // head's header joins the lane of the segment holding it. The
    // events are appended, so the segments keep their reserved
    // capacity.
    for (Wave& wave : buckets_)
        wave.clear();
    const NodeId n = topo_->numNodes();
    const NodeId shard0_end = shardCtx_.front().end;
    // The shard owning `node` (ranges are contiguous and ascending).
    const auto owner = [&](NodeId node, const char* what) {
        if (node >= n)
            panic("restored ", what, " for node ", node, " of ", n);
        unsigned s = 0;
        while (node >= shardCtx_[s].end)
            ++s;
        return s;
    };
    for (std::size_t i = 0; i < listed.size(); ++i) {
        ListedBucket& from = listed[i];
        if (from.empty())
            continue;
        Wave& wave = bucketOf(now_ + i);
        for (Segment& each : wave.segs)
            each.openRun();
        const auto staged = [](Segment& seg, auto& e) {
            e.event.header = kNoHeader;
            if (e.event.flit.isHead()) {
                e.event.header =
                    static_cast<std::uint32_t>(seg.headers.size());
                seg.headers.push_back(e.header);
            }
            return e.event;
        };
        Segment& seg = wave.segs.front();
        for (auto& e : from.flits)
            seg.flits.push(staged(seg, e), e.event.node >= shard0_end);
        for (const auto& e : from.credits)
            seg.credits.push(e, e.node >= shard0_end);
        for (const auto& e : from.bkills)
            seg.bkills.push(e, e.node >= shard0_end);
        for (auto& e : from.recvFlits) {
            if (e.event.ejChannel >= cfg_.ejectionChannels)
                panic("restored ejection flit on channel ",
                      e.event.ejChannel, " of ", cfg_.ejectionChannels);
            Segment& own =
                wave.segs[owner(e.event.node, "ejection flit")];
            own.recvFlits.events.push_back(staged(own, e));
        }
        for (const auto& e : from.injCredits) {
            wave.segs[owner(e.node, "injection credit")]
                .injCredits.events.push_back(e);
        }
        for (const auto& e : from.aborts)
            wave.segs[owner(e.node, "abort")].aborts.events.push_back(e);
    }
}

void
Network::saveState(StateWriter& w) const
{
    const std::vector<ListedBucket> listed = listBuckets();
    serialize(*this, w, listed);
}

void
Network::loadState(StateReader& r)
{
    std::vector<ListedBucket> listed(buckets_.size());
    serialize(*this, r, listed);

    // The snapshot's master block is the whole truth: any counts
    // still sitting in shard blocks belong to the abandoned timeline.
    for (auto& blk : shardStats_)
        resetCounters(*blk);
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        routers_[id]->afterRestore();
        injectors_[id]->afterRestore();
        receivers_[id]->afterRestore();
    }
    placeBuckets(listed);
    dueEvents_.clear();
}

} // namespace crnet
