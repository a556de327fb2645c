/**
 * @file
 * Fundamental scalar types shared by every crnet subsystem.
 */

#ifndef CRNET_SIM_TYPES_HH
#define CRNET_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace crnet {

/** Simulation time, in router clock cycles. */
using Cycle = std::uint64_t;

/** Linear node identifier inside a topology (0 .. numNodes-1). */
using NodeId = std::uint32_t;

/** Unique message identifier, assigned at message creation. */
using MsgId = std::uint64_t;

/** Virtual-channel index within an input or output port. */
using VcId = std::uint16_t;

/** Port index on a router (0 .. radix-1). */
using PortId = std::uint16_t;

/** Sentinel for "no scheduled cycle" (deadline never fires). */
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode =
    std::numeric_limits<NodeId>::max();

/** Sentinel for "no message". */
inline constexpr MsgId kInvalidMsg = std::numeric_limits<MsgId>::max();

/** Sentinel for "no port". */
inline constexpr PortId kInvalidPort =
    std::numeric_limits<PortId>::max();

/** Sentinel for "no virtual channel". */
inline constexpr VcId kInvalidVc = std::numeric_limits<VcId>::max();

/**
 * The VC after `vc` among `n`, wrapping to 0: the round-robin step,
 * by compare instead of division.
 */
inline constexpr VcId
nextVc(VcId vc, std::uint32_t n)
{
    return static_cast<VcId>(vc + 1u == n ? 0 : vc + 1);
}

} // namespace crnet

#endif // CRNET_SIM_TYPES_HH
