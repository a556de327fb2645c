#include "src/traffic/generator.hh"

#include <algorithm>
#include <utility>

#include "src/sim/log.hh"
#include "src/sim/snapshot.hh"

namespace crnet {

TrafficGenerator::TrafficGenerator(const SimConfig& cfg,
                                   const Topology& topo, Rng rng)
    : cfg_(cfg), topo_(topo), pattern_(makePattern(cfg, topo)),
      rng_(rng)
{
    double mean_len = cfg.messageLength;
    if (cfg.bimodalFracB > 0.0) {
        mean_len = (1.0 - cfg.bimodalFracB) * cfg.messageLength +
                   cfg.bimodalFracB * cfg.messageLengthB;
    }
    if (topo.numNodes() <= kDensePairNodeLimit) {
        pairSeqDense_.assign(static_cast<std::size_t>(topo.numNodes()) *
                                 topo.numNodes(),
                             0u);
    }
    perCycleProb_ = cfg.injectionRate / mean_len;
    if (perCycleProb_ > 1.0)
        fatal("injection rate ", cfg.injectionRate,
              " exceeds one message per cycle at mean length ",
              mean_len);
    offered_ = cfg.injectionRate;
}

std::uint32_t
TrafficGenerator::drawLength()
{
    if (cfg_.bimodalFracB > 0.0 && rng_.chance(cfg_.bimodalFracB))
        return cfg_.messageLengthB;
    return cfg_.messageLength;
}

std::uint32_t
TrafficGenerator::nextPairSeq(NodeId src, NodeId dst)
{
    if (!pairSeqDense_.empty()) {
        return pairSeqDense_[static_cast<std::size_t>(src) *
                                 topo_.numNodes() +
                             dst]++;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32) | dst;
    return pairSeqSparse_.try_emplace(key, 0).first->second++;
}

bool
TrafficGenerator::drawArrival()
{
    return rng_.chance(perCycleProb_);
}

NodeId
TrafficGenerator::scanArrivals(NodeId from)
{
    const NodeId n = topo_.numNodes();
    for (NodeId src = from; src < n; ++src) {
        if (rng_.chance(perCycleProb_))
            return src;
    }
    return n;
}

PendingMessage
TrafficGenerator::makeFor(NodeId src, Cycle now, bool measured)
{
    const NodeId dst = pattern_->destination(src, rng_);
    return makeMessage(src, dst, drawLength(), now, measured);
}

std::optional<PendingMessage>
TrafficGenerator::maybeGenerate(NodeId src, Cycle now, bool measured)
{
    if (!drawArrival())
        return std::nullopt;
    return makeFor(src, now, measured);
}

PendingMessage
TrafficGenerator::makeMessage(NodeId src, NodeId dst,
                              std::uint32_t payload_len, Cycle now,
                              bool measured)
{
    if (dst == src)
        fatal("self-traffic is not modeled (src == dst == ", src, ")");
    if (dst >= topo_.numNodes())
        fatal("destination ", dst, " out of range");
    PendingMessage m;
    m.id = nextMsgId_++;
    m.src = src;
    m.dst = dst;
    m.payloadLen = payload_len;
    m.createdAt = now;
    m.pairSeq = nextPairSeq(src, dst);
    m.measured = measured;
    return m;
}

CRNET_ALLOW("unordered-iter",
            "pairSeq entries are sorted by key before serialization "
            "so the snapshot bytes never depend on hash order")
void
TrafficGenerator::saveState(StateWriter& w) const
{
    saveRng(w, rng_);
    w.u64(nextMsgId_);
    // Same bytes from either storage mode: sorted, and only pairs
    // that communicated (the dense matrix's zeros are the sparse
    // map's absent keys).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> seqs;
    if (!pairSeqDense_.empty()) {
        const std::size_t n = topo_.numNodes();
        for (std::size_t src = 0; src < n; ++src) {
            for (std::size_t dst = 0; dst < n; ++dst) {
                const std::uint32_t seq =
                    pairSeqDense_[src * n + dst];
                if (seq != 0)
                    seqs.emplace_back((static_cast<std::uint64_t>(src)
                                       << 32) |
                                          dst,
                                      seq);
            }
        }
    } else {
        seqs.assign(pairSeqSparse_.begin(), pairSeqSparse_.end());
        std::sort(seqs.begin(), seqs.end());
    }
    w.u64(seqs.size());
    for (const auto& [key, seq] : seqs) {
        w.u64(key);
        w.u32(seq);
    }
}

void
TrafficGenerator::loadState(StateReader& r)
{
    loadRng(r, rng_);
    nextMsgId_ = r.u64();
    if (!pairSeqDense_.empty())
        std::fill(pairSeqDense_.begin(), pairSeqDense_.end(), 0u);
    pairSeqSparse_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = r.u64();
        const std::uint32_t seq = r.u32();
        if (!pairSeqDense_.empty()) {
            pairSeqDense_[static_cast<std::size_t>(key >> 32) *
                              topo_.numNodes() +
                          static_cast<std::uint32_t>(key)] = seq;
        } else {
            pairSeqSparse_.emplace(key, seq);
        }
    }
}

} // namespace crnet
