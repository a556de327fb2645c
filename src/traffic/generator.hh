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

#include <cstdint>
#include <memory>
#include <utility>
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
                "per-pair sequence bookkeeping: a source's table grows "
                "the first time it sends to a destination, by design")
    std::uint32_t nextPairSeq(NodeId src, NodeId dst);

    /** Each source's (destination, next sequence number) table. */
    using PairSeqTables = std::vector<SortedTable<NodeId, std::uint32_t>>;

    /**
     * The per-source tables as the one table, keyed (src << 32) | dst
     * and ascending, that the field list serializes.
     */
    template <typename Tables>
    class PairSeqView
    {
      public:
        using value_type = std::pair<std::uint64_t, std::uint32_t>;

        explicit PairSeqView(Tables& tables) : tables_(tables)
        {
            for (std::uint64_t src = 0; src < tables.size(); ++src)
                for (const auto& [dst, seq] : tables[src])
                    flat_.emplace_back(src << 32 | dst, seq);
        }

        auto begin() const { return flat_.begin(); }
        auto end() const { return flat_.end(); }
        std::size_t size() const { return flat_.size(); }

        void
        clear()
        {
            for (auto& t : tables_)
                t.clear();
        }

        /** Appends: the reader refuses keys out of ascending order. */
        CRNET_ALLOW("alloc",
                    "restore-only insertion (StateReader::sorted); the "
                    "tick never reaches it, but the analyzer links "
                    "every insert() call here by name")
        void
        insert(auto, value_type e)
        {
            tables_[e.first >> 32].emplace_back(
                static_cast<NodeId>(e.first), e.second);
        }

      private:
        Tables& tables_;
        std::vector<value_type> flat_;
    };

    const SimConfig& cfg_;
    const Topology& topo_;
    std::unique_ptr<Pattern> pattern_;
    Rng rng_;
    double perCycleProb_;
    double offered_;
    MsgId nextMsgId_ = 0;
    /**
     * Per-pair sequence counters: each source's table holds only the
     * destinations it sent to, so the tables stay in proportion to
     * the traffic on a network of any size, and a new pair's insert
     * shifts one source's entries, not the network's.
     */
    PairSeqTables pairSeq_;
};

template <typename Self, typename Io>
void
TrafficGenerator::serialize(Self& self, Io& io)
{
    io.rng(self.rng_);
    io.u64(self.nextMsgId_);
    const std::uint64_t n = self.topo_.numNodes();
    PairSeqView pair_seq(self.pairSeq_);
    io.sorted(pair_seq, [&](auto& key, auto& seq) {
        io.u64(key);
        io.u32(seq);
        if (key >> 32 >= n || (key & 0xffffffffu) >= n)
            panic("restored table key ", key, " is out of range");
    });
}

} // namespace crnet

#endif // CRNET_TRAFFIC_GENERATOR_HH
