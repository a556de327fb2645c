#include "src/sim/audit.hh"

#include <algorithm>

#include "src/nic/padding.hh"
#include "src/sim/log.hh"
#include "src/topology/topology.hh"

namespace crnet {

namespace {

const char*
kindName(AuditEdgeKind k)
{
    switch (k) {
      case AuditEdgeKind::Network:
        return "network";
      case AuditEdgeKind::Injection:
        return "injection";
      case AuditEdgeKind::Ejection:
        return "ejection";
    }
    return "?";
}

} // namespace

CRNET_ALLOW("global-state",
            "per-thread staging pointer for the sharded tick: set and "
            "cleared by the owning worker only, null everywhere else; "
            "every staged delta is folded deterministically")
thread_local Auditor::ShardStage* Auditor::tlsStage_ = nullptr;

void
Auditor::setThreadStage(ShardStage* stage)
{
    tlsStage_ = stage;
}

void
Auditor::foldStage(ShardStage& stage)
{
    injected_ += stage.injected;
    consumed_ += stage.consumed;
    purged_ += stage.purged;
    flitChecks_ += stage.flitChecks;
    // The kill registry is a set, so insertion order is immaterial;
    // serialization sorts it anyway.
    for (const std::uint64_t key : stage.kills)
        issuedKills_.insert(key);
    stage.injected = 0;
    stage.consumed = 0;
    stage.purged = 0;
    stage.flitChecks = 0;
    stage.kills.clear();
}

Auditor::Auditor(const SimConfig& cfg, const Topology& topo)
    : cfg_(cfg), topo_(topo),
      portsPerRouter_(2 * cfg.dimensionsN + cfg.injectionChannels)
{
    const std::size_t n = topo.numNodes();
    routerChannels_.resize(n * portsPerRouter_ * cfg.numVcs);
    ejectionChannels_.resize(n * cfg.ejectionChannels * cfg.numVcs);
}

Auditor::ChannelState&
Auditor::routerChannel(NodeId node, PortId port, VcId vc)
{
    if (port >= portsPerRouter_ || vc >= cfg_.numVcs)
        panic("audit: router channel out of range (node ", node,
              ", port ", port, ", vc ", vc, ")");
    return routerChannels_[(static_cast<std::size_t>(node) *
                                portsPerRouter_ +
                            port) *
                               cfg_.numVcs +
                           vc];
}

Auditor::ChannelState&
Auditor::ejectionChannel(NodeId node, std::uint32_t ch, VcId vc)
{
    if (ch >= cfg_.ejectionChannels || vc >= cfg_.numVcs)
        panic("audit: ejection channel out of range (node ", node,
              ", channel ", ch, ", vc ", vc, ")");
    return ejectionChannels_[(static_cast<std::size_t>(node) *
                                  cfg_.ejectionChannels +
                              ch) *
                                 cfg_.numVcs +
                             vc];
}

void
Auditor::onWormStart(NodeId src, NodeId dst, std::uint32_t wire_len,
                     std::uint32_t payload_len)
{
    if (wire_len < payload_len + 1) {
        panic("audit: worm ", src, "->", dst, " wire length ",
              wire_len, " cannot carry payload ", payload_len,
              " plus a tail");
    }
    const std::uint32_t capacity = pathFlitCapacity(
        topo_.distance(src, dst), cfg_.bufferDepth,
        cfg_.channelLatency);
    switch (cfg_.protocol) {
      case ProtocolKind::Cr:
        // Paper Sec. 2: while any flit remains at the source, a
        // blocked header must show as an injection stall, so the worm
        // must be at least one path capacity long.
        if (wire_len < capacity) {
            panic("audit: CR padding violation ", src, "->", dst,
                  ": wire length ", wire_len,
                  " < path flit capacity ", capacity, " at cycle ",
                  now_);
        }
        break;
      case ProtocolKind::Fcr:
        // Paper Sec. 5: round-trip padding — every payload flit must
        // be followed by a full network depth of pads.
        if (wire_len < payload_len + capacity) {
            panic("audit: FCR padding violation ", src, "->", dst,
                  ": wire length ", wire_len, " < payload ",
                  payload_len, " + path capacity ", capacity,
                  " at cycle ", now_);
        }
        break;
      case ProtocolKind::None:
        break;
    }
}

void
Auditor::checkHeaderCarrier(const WireFlit& flit, const WormHeader* hdr,
                            const char* where, NodeId node)
{
    if (flit.isHead() != (hdr != nullptr)) {
        panic("audit: ", flit.isHead() ? "head" : "non-head",
              " flit of msg ", flit.msg, " seq ", flit.seq, " at ",
              where, " (node ", node, ") ",
              flit.isHead() ? "without its worm header"
                            : "carrying a worm header");
    }
}

void
Auditor::onFlitInjected(NodeId node, const WireFlit& flit,
                        const WormHeader* hdr)
{
    if (!flit.isData())
        return;
    checkHeaderCarrier(flit, hdr, "injection", node);
    if (tlsStage_ != nullptr)
        ++tlsStage_->injected;
    else
        ++injected_;
    if (hdr != nullptr && hdr->createdAt > hdr->headInjectedAt) {
        panic("audit: flit of msg ", flit.msg, " injected at node ",
              node, " before its message was created (created ",
              hdr->createdAt, ", head injected ", hdr->headInjectedAt,
              ")");
    }
}

void
Auditor::checkFlit(ChannelState& ch, const WireFlit& flit,
                   const WormHeader* hdr, const char* where,
                   NodeId node, std::uint32_t port, VcId vc)
{
    if (tlsStage_ != nullptr)
        ++tlsStage_->flitChecks;
    else
        ++flitChecks_;
    checkHeaderCarrier(flit, hdr, where, node);

    if (flit.isKill()) {
        // A kill token may only chase the worm that actually holds or
        // held this channel (forward kills retrace their worm's path).
        // One exception: a kill can overrun its worm by a single hop
        // when the header it chases was purged from a buffer before
        // traversing the reserved channel — that channel then sees the
        // token but never saw the worm. Such a token is legal only if
        // its issuance was registered (onKillIssued or an upstream
        // channel match); a fabricated kill still panics.
        if (ch.msg != kInvalidMsg) {
            if (flit.msg != ch.msg) {
                panic("audit: kill token for msg ", flit.msg,
                      " arrived on ", where, " channel (node ", node,
                      ", port ", port, ", vc ", vc,
                      ") occupied by msg ", ch.msg, " at cycle ",
                      now_);
            }
        } else if (flit.msg != ch.purgedMsg &&
                   issuedKills_.count(
                       killKey(flit.msg, flit.attempt)) == 0) {
            panic("audit: kill token for msg ", flit.msg, " on idle ",
                  where, " channel (node ", node, ", port ", port,
                  ", vc ", vc, ") that never carried its worm",
                  " at cycle ", now_);
        }
        registerKill(killKey(flit.msg, flit.attempt));
        ch.purgedMsg = flit.msg;
        ch.msg = kInvalidMsg;
        ch.nextSeq = 0;
        return;
    }

    if (flit.isHead()) {
        // Timestamp sanity on the worm's header, which its body flits
        // share.
        if (hdr->createdAt > hdr->headInjectedAt ||
            hdr->headInjectedAt > now_) {
            panic("audit: non-monotonic timestamps on msg ", flit.msg,
                  " seq ", flit.seq, " (created ", hdr->createdAt,
                  ", head injected ", hdr->headInjectedAt, ", now ",
                  now_, ") at node ", node);
        }
        if (ch.msg != kInvalidMsg) {
            panic("audit: header of msg ", flit.msg,
                  " interleaved into active worm ", ch.msg, " on ",
                  where, " channel (node ", node, ", port ", port,
                  ", vc ", vc, ") at cycle ", now_);
        }
        if (flit.seq != 0) {
            panic("audit: header of msg ", flit.msg,
                  " carries seq ", flit.seq, " (must be 0)");
        }
        ch.msg = flit.msg;
        ch.attempt = flit.attempt;
        ch.nextSeq = 1;
        ch.payloadLen = hdr->payloadLen;
        return;
    }

    if (ch.msg == kInvalidMsg) {
        // Only a straggler of the worm most recently purged here can
        // legally appear without its header.
        if (flit.msg != ch.purgedMsg) {
            panic("audit: ", where, " flit of msg ", flit.msg,
                  " seq ", flit.seq,
                  " without a header (node ", node, ", port ", port,
                  ", vc ", vc, ", last purged msg ", ch.purgedMsg,
                  ") at cycle ", now_);
        }
        return;
    }

    if (flit.msg != ch.msg || flit.attempt != ch.attempt) {
        panic("audit: interleaved worms on one ", where,
              " channel: msg ", flit.msg, " attempt ", flit.attempt,
              " vs msg ", ch.msg, " attempt ", ch.attempt,
              " (node ", node, ", port ", port, ", vc ", vc,
              ") at cycle ", now_);
    }
    if (flit.seq != ch.nextSeq) {
        panic("audit: sequence gap in msg ", flit.msg, " on ", where,
              " channel (node ", node, ", port ", port, ", vc ", vc,
              "): seq ", flit.seq, " expected ", ch.nextSeq,
              " at cycle ", now_);
    }
    ++ch.nextSeq;

    // Framing legality derived from the worm's own header metadata:
    // payload flits (head + body) occupy seq [0, payloadLen), pads and
    // the tail follow.
    switch (flit.type) {
      case FlitType::Body:
        if (flit.seq >= ch.payloadLen) {
            panic("audit: body flit past the payload (msg ", flit.msg,
                  ", seq ", flit.seq, ", payload ", ch.payloadLen,
                  ") at node ", node);
        }
        break;
      case FlitType::Pad:
      case FlitType::Tail:
        if (flit.seq < ch.payloadLen) {
            panic("audit: ", flit.isTail() ? "tail" : "pad",
                  " flit inside the payload (msg ", flit.msg,
                  ", seq ", flit.seq, ", payload ", ch.payloadLen,
                  ") at node ", node);
        }
        break;
      case FlitType::Head:
      case FlitType::Kill:
        break;  // Handled above.
    }

    if (flit.isTail()) {
        // Worm complete; the channel is free and no straggler of this
        // worm can legally follow its tail.
        ch.msg = kInvalidMsg;
        ch.purgedMsg = kInvalidMsg;
        ch.nextSeq = 0;
    }
}

void
Auditor::onChannelFlit(NodeId node, PortId in_port, VcId vc,
                       const WireFlit& flit, const WormHeader* hdr)
{
    checkFlit(routerChannel(node, in_port, vc), flit, hdr, "router",
              node, in_port, vc);
}

void
Auditor::onEjectionFlit(NodeId node, std::uint32_t ej_channel,
                        VcId vc, const WireFlit& flit,
                        const WormHeader* hdr)
{
    checkFlit(ejectionChannel(node, ej_channel, vc), flit, hdr,
              "ejection", node, ej_channel, vc);
}

void
Auditor::onChannelReset(NodeId node, PortId in_port, VcId vc,
                        MsgId msg)
{
    ChannelState& ch = routerChannel(node, in_port, vc);
    if (ch.msg != kInvalidMsg && ch.msg != msg) {
        panic("audit: purge of msg ", msg, " on router channel (node ",
              node, ", port ", in_port, ", vc ", vc,
              ") occupied by msg ", ch.msg, " at cycle ", now_);
    }
    ch.purgedMsg = msg;
    ch.msg = kInvalidMsg;
    ch.nextSeq = 0;
}

void
Auditor::onFlitConsumed(NodeId node, const WireFlit& flit,
                        const WormHeader* hdr)
{
    checkHeaderCarrier(flit, hdr, "consumption", node);
    if (tlsStage_ != nullptr)
        ++tlsStage_->consumed;
    else
        ++consumed_;
    if (hdr != nullptr && hdr->headInjectedAt > now_) {
        panic("audit: msg ", flit.msg, " flit consumed at node ", node,
              " before its injection cycle ", hdr->headInjectedAt,
              " (now ", now_, ")");
    }
}

void
Auditor::sweep(const AuditSnapshot& snap)
{
    ++sweeps_;

    // Invariant 2 — flit conservation. Injected flits are either
    // still live (buffered or on a wire) or accounted for as consumed
    // or purged. A mismatch means a flit was dropped or duplicated.
    const std::uint64_t accounted =
        consumed_ + purged_ + snap.bufferedFlits + snap.inFlightFlits;
    if (accounted != injected_) {
        panic("audit: flit conservation violated at cycle ", snap.now,
              ": injected ", injected_, " != consumed ", consumed_,
              " + purged ", purged_, " + buffered ",
              snap.bufferedFlits, " + in flight ", snap.inFlightFlits);
    }

    // Invariant 3 — exact credit ledgers, per edge.
    for (const AuditEdge& e : snap.edges) {
        if (e.skip)
            continue;
        const std::uint64_t total =
            static_cast<std::uint64_t>(e.credits) + e.occupancy +
            e.inFlightFlits + e.inFlightCredits;
        if (total != cfg_.bufferDepth) {
            panic("audit: credit ledger broken on ", kindName(e.kind),
                  " edge into node ", e.node, " port ", e.port, " vc ",
                  e.vc, " at cycle ", snap.now, ": credits ",
                  e.credits, " + occupancy ", e.occupancy,
                  " + in-flight flits ", e.inFlightFlits,
                  " + in-flight credits ", e.inFlightCredits, " != ",
                  cfg_.bufferDepth);
        }
    }
}

} // namespace crnet
