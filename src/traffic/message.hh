/**
 * @file
 * Message descriptors exchanged between the traffic generator, the
 * injector and the measurement machinery.
 */

#ifndef CRNET_TRAFFIC_MESSAGE_HH
#define CRNET_TRAFFIC_MESSAGE_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace crnet {

/** A message waiting in (or re-queued to) a source queue. */
struct PendingMessage
{
    MsgId id = kInvalidMsg;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Payload flits including the head flit (tail and pads extra). */
    std::uint32_t payloadLen = 0;
    /** Cycle the message was created by the generator / API. */
    Cycle createdAt = 0;
    /** Per-(src,dst) sequence number for order checking. */
    std::uint32_t pairSeq = 0;
    /** Transmission attempts so far (0 before the first try). */
    std::uint16_t attempt = 0;
    /** Earliest cycle the next attempt may start (backoff). */
    Cycle notBefore = 0;
    /** Created inside the measurement window (stats eligible). */
    bool measured = false;

    /** Snapshot field list (snapshot.hh). */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.u64(self.id);
        io.u32(self.src);
        io.u32(self.dst);
        io.u32(self.payloadLen);
        io.u64(self.createdAt);
        io.u32(self.pairSeq);
        io.u16(self.attempt);
        io.u64(self.notBefore);
        io.b(self.measured);
    }
};

} // namespace crnet

#endif // CRNET_TRAFFIC_MESSAGE_HH
