/**
 * @file
 * Routing-algorithm interface and factory.
 *
 * A routing algorithm maps (current node, header flit) to an ordered
 * list of candidate (output port, output VC) pairs. The router tries
 * candidates in order and takes the first whose output VC is free, so
 * list order expresses preference (adaptive algorithms emit several
 * equally-productive candidates; escape paths come last).
 *
 * Ejection is not the algorithm's business: the router ejects any
 * header whose destination is the local node before consulting the
 * algorithm.
 */

#ifndef CRNET_ROUTING_ROUTING_HH
#define CRNET_ROUTING_ROUTING_HH

#include <memory>
#include <vector>

#include "src/fault/fault_model.hh"
#include "src/router/flit.hh"
#include "src/sim/config.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/topology/topology.hh"

namespace crnet {

/** One routing option for a header. */
struct Candidate
{
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    /** True when this option is a deadlock-escape resource (Duato). */
    bool escape = false;
    /** True when this option moves away from the destination. */
    bool misroute = false;
};

/**
 * Abstract routing relation. Implementations are stateless with
 * respect to individual worms: any per-worm routing state (dateline
 * class, misroute budget) lives in the header flit and is updated via
 * onTraverse().
 */
class RoutingAlgorithm
{
  public:
    /**
     * @param topo   Network graph.
     * @param faults Link health oracle (never null).
     * @param num_vcs VCs per physical channel.
     */
    RoutingAlgorithm(const Topology& topo, const FaultModel& faults,
                     std::uint32_t num_vcs)
        : topo_(topo), faults_(faults), numVcs_(num_vcs)
    {
    }

    virtual ~RoutingAlgorithm() = default;

    /**
     * Produce candidates, most preferred first, for `head` sitting at
     * `node`. `rng` may be used to randomize ties (adaptive spread).
     * Dead links must not be emitted.
     */
    virtual void candidates(NodeId node, const WireFlit& head,
                            std::vector<Candidate>& out,
                            Rng& rng) const = 0;

    /**
     * Update per-worm routing state carried in the header when it is
     * forwarded from `node` over `port` (e.g. dateline class flips).
     */
    virtual void onTraverse(NodeId node, PortId port,
                            WireFlit& head) const;

    /**
     * Initialize header routing state at injection time (e.g. reset
     * the dateline class).
     */
    virtual void onInject(NodeId src, WireFlit& head) const;

    /** True when `vc` is reserved as an escape resource. */
    virtual bool isEscapeVc(VcId vc) const;

    /**
     * True when the relation alone guarantees deadlock freedom (i.e.
     * it can run under ProtocolKind::None). CR-style relations return
     * false and rely on the CR recovery protocol.
     */
    virtual bool selfDeadlockFree() const = 0;

    std::uint32_t numVcs() const { return numVcs_; }

  protected:
    /** Append candidates for every VC in [first, last) on `port`. */
    void appendVcRange(std::vector<Candidate>& out, PortId port,
                       VcId first, VcId last, bool escape = false,
                       bool misroute = false) const;

    const Topology& topo_;
    const FaultModel& faults_;
    std::uint32_t numVcs_;
};

/**
 * Dimension-order routing. Deterministic: corrects dimension 0 first,
 * then 1, ... On tori the shorter way around is chosen (ties go to
 * Plus) and deadlock freedom comes from dateline VC classes: VCs are
 * split into two classes; a worm starts in class 0 and moves to class
 * 1 after crossing the dateline of the dimension it is traveling in.
 * With 2v VCs each class holds v adaptive lanes. On meshes all VCs
 * are lanes of class 0.
 */
class DorRouting : public RoutingAlgorithm
{
  public:
    DorRouting(const Topology& topo, const FaultModel& faults,
               std::uint32_t num_vcs);

    void candidates(NodeId node, const WireFlit& head,
                    std::vector<Candidate>& out, Rng& rng) const override;
    void onTraverse(NodeId node, PortId port,
                    WireFlit& head) const override;
    bool selfDeadlockFree() const override;

    /** The single productive DOR port for `head` at `node`. */
    PortId dorPort(NodeId node, const WireFlit& head) const;

  private:
    std::uint32_t lanesPerClass_ = 1;
};

/**
 * Fully adaptive minimal routing — CR's routing relation. Every
 * minimal direction in every unfinished dimension is a candidate, on
 * every VC; candidate order is randomized each call so the worm
 * spreads over the options. Not deadlock-free by itself: it must run
 * under the CR/FCR protocol (or be used to demonstrate deadlock).
 *
 * When the header carries misroute budget (FCR retries around
 * permanent faults), healthy non-minimal directions are appended after
 * the minimal ones.
 */
class MinimalAdaptiveRouting : public RoutingAlgorithm
{
  public:
    MinimalAdaptiveRouting(const Topology& topo,
                           const FaultModel& faults,
                           std::uint32_t num_vcs);

    void candidates(NodeId node, const WireFlit& head,
                    std::vector<Candidate>& out, Rng& rng) const override;
    bool selfDeadlockFree() const override { return false; }
};

/**
 * Duato's deadlock-free adaptive routing (the paper's PDS-estimation
 * baseline). VC layout: the first E VCs are escape channels routed by
 * DOR with dateline classes (E = 2 on tori, 1 on meshes); remaining
 * VCs are fully adaptive minimal. A header may always fall back to
 * its escape channel, so the network never deadlocks; each escape
 * allocation is counted as one potential deadlock situation.
 */
class DuatoRouting : public RoutingAlgorithm
{
  public:
    DuatoRouting(const Topology& topo, const FaultModel& faults,
                 std::uint32_t num_vcs);

    void candidates(NodeId node, const WireFlit& head,
                    std::vector<Candidate>& out, Rng& rng) const override;
    void onTraverse(NodeId node, PortId port,
                    WireFlit& head) const override;
    bool isEscapeVc(VcId vc) const override;
    bool selfDeadlockFree() const override { return true; }

    VcId numEscapeVcs() const { return escapeVcs_; }

  private:
    DorRouting dor_;
    VcId escapeVcs_;
};

/**
 * Turn-model routing on 2D meshes (Glass & Ni). Two variants:
 *
 *  - WestFirst: all West (x-) hops are taken first, deterministically;
 *    afterwards the worm routes adaptively among {x+, y+, y-}.
 *  - NegativeFirst: all negative hops (x-, y-) are taken first,
 *    adaptively among themselves; then positive hops adaptively.
 *
 * Deadlock-free on meshes with no virtual channels (extra VCs act as
 * lanes).
 */
class TurnModelRouting : public RoutingAlgorithm
{
  public:
    enum class Variant { WestFirst, NegativeFirst };

    TurnModelRouting(const Topology& topo, const FaultModel& faults,
                     std::uint32_t num_vcs, Variant variant);

    void candidates(NodeId node, const WireFlit& head,
                    std::vector<Candidate>& out, Rng& rng) const override;
    bool selfDeadlockFree() const override { return true; }

  private:
    Variant variant_;
};

/**
 * Planar-adaptive routing (Chien & Kim — the paper authors' earlier
 * VC-based adaptive scheme), specialized to 2D meshes: traffic splits
 * into an increasing and a decreasing subnetwork by the sign of the
 * remaining y offset; x channels carry one VC class per subnetwork, y
 * channels use the remaining VCs as lanes. Deadlock-free with a
 * constant 3 VCs, adaptive between the x and y minimal directions.
 */
class PlanarAdaptiveRouting : public RoutingAlgorithm
{
  public:
    PlanarAdaptiveRouting(const Topology& topo,
                          const FaultModel& faults,
                          std::uint32_t num_vcs);

    void candidates(NodeId node, const WireFlit& head,
                    std::vector<Candidate>& out, Rng& rng) const override;
    bool selfDeadlockFree() const override { return true; }
};

/** Build the configured routing algorithm. */
std::unique_ptr<RoutingAlgorithm>
makeRouting(const SimConfig& cfg, const Topology& topo,
            const FaultModel& faults);

/**
 * Dateline VC class (0 or 1) for one hop of a minimal path. Shared by
 * DOR and Duato's escape channels; see dor.cc for the deadlock-freedom
 * argument. Always 0 on meshes.
 */
std::uint8_t datelineClass(const Topology& topo, NodeId node, NodeId dst,
                           PortId port);

} // namespace crnet

#endif // CRNET_ROUTING_ROUTING_HH
