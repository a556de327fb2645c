/**
 * @file
 * Flit: the unit of flow control in the wormhole network.
 *
 * A message (worm) is serialized as Head, Body*, Pad*, Tail. Pad flits
 * are CR/FCR padding: they carry no payload and are stripped by the
 * receiver. Kill is not message data; it is the forward kill token that
 * tears down a worm's path (modeled in-band because that is how it
 * travels in hardware: on the same wires, ignoring buffer credits).
 *
 * The engine stores and stages every flit as a WireFlit: only what is
 * read per flit. What the receiver needs once per worm (WormHeader)
 * travels beside the head and nowhere else: injector outbox → wave
 * header lane → each hop's input-VC record → the receiver's assembly
 * (docs/PERFORMANCE.md, "Flit diet and shard-local delivery"). A Flit
 * is both halves, the record type at component APIs.
 */

#ifndef CRNET_ROUTER_FLIT_HH
#define CRNET_ROUTER_FLIT_HH

#include <cstdint>

#include "src/sim/checksum.hh"
#include "src/sim/types.hh"

namespace crnet {

/** Kind of flit. */
enum class FlitType : std::uint8_t { Head, Body, Pad, Tail, Kill };

/** One flow-control unit as the engine stores and stages it. */
struct WireFlit
{
    MsgId msg = kInvalidMsg;
    std::uint32_t seq = 0;       //!< Position in the worm; head is 0.
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;

    /** Modeled data word; CRC is computed over this. */
    std::uint32_t payload = 0;

    /** Which transmission attempt of the message this flit belongs to. */
    std::uint16_t attempt = 0;

    FlitType type = FlitType::Body;

    /**
     * Dateline/escape class used by DOR and Duato routing; updated by
     * RoutingAlgorithm::onTraverse as the head crosses datelines.
     * Meaningful on Head flits only (body flits follow the worm's path).
     */
    std::uint8_t vcClass = 0;

    /** Remaining non-minimal hops this header may take (FCR retries). */
    std::uint8_t misrouteBudget = 0;

    /** Checksum as computed by the sender over the original payload. */
    std::uint8_t crc = 0;

    /**
     * Set by the fault model when a transient fault hits this flit.
     * The payload is scrambled at the same time, so `checksumOk()`
     * reports the corruption just as receiver hardware would.
     */
    bool corrupted = false;

    bool isHead() const { return type == FlitType::Head; }
    bool isTail() const { return type == FlitType::Tail; }
    bool isKill() const { return type == FlitType::Kill; }
    /** Data flit = anything that is part of the worm itself. */
    bool isData() const { return type != FlitType::Kill; }

    /** Recompute and store the CRC over the current payload. */
    void stampCrc() { crc = crc8(payload); }

    /** True when the payload still matches its checksum. */
    bool checksumOk() const { return crc8(payload) == crc; }

    /** Snapshot field list (snapshot.hh). */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.u8(self.type);
        io.u64(self.msg);
        io.u32(self.seq);
        io.u32(self.src);
        io.u32(self.dst);
        io.u8(self.vcClass);
        io.u8(self.misrouteBudget);
        io.u16(self.attempt);
        io.u32(self.payload);
        io.u8(self.crc);
        io.b(self.corrupted);
    }
};

static_assert(sizeof(WireFlit) <= 40,
              "WireFlit fills every VC slot, kill token, outbox and "
              "wave lane; it must not grow back toward the full Flit");

/** Per-worm metadata: set by the injector, carried once, by the head. */
struct WormHeader
{
    /** Payload flits in the message, including the head flit. */
    std::uint32_t payloadLen = 0;
    /** Per-(src,dst) message sequence number (order checking). */
    std::uint32_t pairSeq = 0;
    /** Cycle the message was created (total-latency measurement). */
    Cycle createdAt = 0;
    /** Cycle this attempt's head entered the network. */
    Cycle headInjectedAt = 0;
    /** Message is eligible for statistics (measurement window). */
    bool measured = false;

    /** Snapshot field list (snapshot.hh). */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.u32(self.payloadLen);
        io.u32(self.pairSeq);
        io.u64(self.createdAt);
        io.u64(self.headInjectedAt);
        io.b(self.measured);
    }
};

/** Index value of a staged flit that carries no header (not a head). */
inline constexpr std::uint32_t kNoHeader = 0xffffffffu;

/**
 * A flit with its worm's header, as built by tests and standalone
 * callers. Component APIs that take one (Router::acceptFlit,
 * Receiver::acceptFlit) split it into the two halves and pass the
 * header on only when the flit is a head.
 */
struct Flit : WireFlit, WormHeader
{
    /** The header half when this is a head, else null. */
    const WormHeader* header() const { return isHead() ? this : nullptr; }
};

} // namespace crnet

#endif // CRNET_ROUTER_FLIT_HH
