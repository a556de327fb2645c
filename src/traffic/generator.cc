#include "src/traffic/generator.hh"

#include <algorithm>
#include <utility>

#include "src/sim/log.hh"

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
    pairSeq_.resize(topo.numNodes());
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
    return findOrInsert(pairSeq_[src], dst, 0u)++;
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

} // namespace crnet
