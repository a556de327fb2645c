/**
 * @file
 * Open-loop synthetic traffic generation.
 *
 * Each node independently generates messages as a Bernoulli process
 * whose per-cycle probability is injectionRate / E[message length], so
 * the offered load in flits/node/cycle equals the configured rate.
 * Message lengths are fixed or bimodal (two modes with a mixing
 * fraction, after Kim & Chien's bimodal traffic study).
 */

#ifndef CRNET_TRAFFIC_GENERATOR_HH
#define CRNET_TRAFFIC_GENERATOR_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/annotations.hh"
#include "src/sim/config.hh"
#include "src/sim/rng.hh"
#include "src/sim/snapshot.hh"
#include "src/traffic/message.hh"
#include "src/traffic/pattern.hh"

namespace crnet {


/** Per-network message source. */
class TrafficGenerator
{
  public:
    TrafficGenerator(const SimConfig& cfg, const Topology& topo,
                     Rng rng);

    /**
     * Draw the current cycle's Bernoulli arrivals for nodes [from, n),
     * one draw per node in node order, stopping at the first success.
     * Returns the node whose draw fired, or n when the rest of the
     * cycle is arrival-free. A cycle is one scan from node 0, resumed
     * with scanArrivals(node + 1) after each fired node, so every node
     * draws exactly once per cycle. At a fired node the caller calls
     * makeFor() (which draws destination and length) before resuming,
     * or, when it cannot accept the message (full source queue),
     * counts the drop and resumes without calling makeFor().
     */
    NodeId scanArrivals(NodeId from);

    /**
     * Materialize the message for an arrival that fired: destination,
     * length, id and pair sequence number. Only call when the message
     * will actually be queued — pair sequence numbers are allocated
     * here and a burned one would read as an order violation at the
     * receiver.
     */
    PendingMessage makeFor(NodeId src, Cycle now, bool measured);

    /**
     * Create one specific message (examples / tests / targeted
     * workloads). Sequence numbers stay consistent with generated
     * traffic.
     */
    PendingMessage makeMessage(NodeId src, NodeId dst,
                               std::uint32_t payload_len, Cycle now,
                               bool measured);

    /** Offered load in flits/node/cycle implied by the config. */
    double offeredLoad() const { return offered_; }

    std::uint64_t generatedCount() const { return nextMsgId_; }

    // --- Checkpoint support (snapshot.hh) ---------------------------

    /** Snapshot field list: RNG stream, id counter, pairSeq table. */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    std::uint32_t drawLength();
    CRNET_ALLOW("alloc",
                "per-pair sequence bookkeeping: one map node the "
                "first time a (src, dst) pair communicates, by design")
    std::uint32_t nextPairSeq(NodeId src, NodeId dst);

    const SimConfig& cfg_;
    const Topology& topo_;
    std::unique_ptr<Pattern> pattern_;
    Rng rng_;
    double perCycleProb_;
    double offered_;
    MsgId nextMsgId_ = 0;
    /**
     * Per-pair sequence counters, adaptive by network size. Small
     * networks (<= kDensePairNodeLimit nodes — every paper-scale
     * configuration) use the dense n x n matrix: one indexed
     * increment per generated message, at most 1 MB. Above the limit
     * the matrix is O(nodes^2) — 17 GB on a 64k-node torus — so
     * giant networks fall back to a sparse map keyed
     * (src << 32) | dst holding only the pairs that actually
     * communicated (absent = 0, never sent). Both forms serialize
     * identically (sorted, non-zero entries only).
     */
    static constexpr NodeId kDensePairNodeLimit = 512;
    std::vector<std::uint32_t> pairSeqDense_;
    std::unordered_map<std::uint64_t, std::uint32_t> pairSeqSparse_;
};

template <typename Self, typename Io>
CRNET_ALLOW("unordered-iter",
            "pairSeq entries are sorted by key before serialization "
            "so the snapshot bytes never depend on hash order")
void
TrafficGenerator::serialize(Self& self, Io& io)
{
    io.rng(self.rng_);
    io.u64(self.nextMsgId_);
    // Only pairs that communicated, keyed (src << 32) | dst: the dense
    // matrix's zeros are the sparse map's absent keys.
    const std::size_t n = self.topo_.numNodes();
    DenseOrSparse pair_seq(
        self.pairSeqDense_, self.pairSeqSparse_, std::uint32_t{0},
        [n](std::size_t i) {
            return (static_cast<std::uint64_t>(i / n) << 32) | (i % n);
        },
        [n](std::uint64_t key) {
            return static_cast<std::size_t>(key >> 32) * n +
                   static_cast<std::uint32_t>(key);
        });
    io.sorted(pair_seq, [&](auto& key, auto& seq) {
        io.u64(key);
        io.u32(seq);
    });
}

} // namespace crnet

#endif // CRNET_TRAFFIC_GENERATOR_HH
