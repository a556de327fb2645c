/**
 * @file
 * Engine scaling on giant networks: intra-run sharding (`shards=`)
 * splits one network's tick across worker threads, so a single
 * 64k-node torus — a size where a load sweep would otherwise take
 * hours — ticks in parallel while staying bit-identical to shards=1
 * (tests/test_shard.cc, docs/PERFORMANCE.md).
 *
 * The results table holds what the simulation did: the flit events of
 * each (size, shards) leg, the same at every shard count. What the host
 * measured goes on `timing:` lines, which byte-diffs and
 * tools/extract_csv.py skip, one per leg:
 *   - wall seconds and flit-events/sec at shards = 1, 2, 4 (same seed,
 *     same traffic; `speedup` is events/sec relative to shards=1), and
 *   - resident memory per node (`node_kb`: peak-RSS growth over the
 *     process baseline divided by node count — the SoA router pools
 *     keep this flat as the network grows),
 * and one more with the best 4-shard speedup from 4k nodes up.
 *
 * Expected shape, with at least 4 free cores: every shard delivers to,
 * ticks and collects its own node range on a fixed thread, so the
 * 4-shard leg runs ~2-4x faster than shards=1 from 1k nodes up (on a
 * 4-vCPU container: 2.1-3.6x at 1k, 2.7-3.4x at 4k, 3.2-3.8x at 16k,
 * 3.3-3.6x at 64k; docs/PERFORMANCE.md section 6). Sharding still
 * loses on networks of tens of nodes, where the per-cycle join costs
 * more than the per-shard work. Memory per node stays roughly
 * constant across sizes.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/core/network.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    base.topology = TopologyKind::Torus;
    base.dimensionsN = 2;
    base.injectionRate = 0.1;
    base.messageLength = 8;
    base.profileEnabled = false;  // Keep the hot loop unperturbed.
    base.applyArgs(argc, argv);

    // Ascending sizes: 1k, 4k, 16k, 64k nodes. Peak RSS only grows,
    // so measuring after each size (one network alive at a time)
    // attributes the peak to the largest-so-far network.
    const std::vector<std::uint32_t> radixes = {32, 64, 128, 256};
    const Cycle warmup = 200;
    const Cycle timed = 400;
    const long rssBaseKb = peakRssKb();

    Table t("Giant-network scaling: one run sharded across threads "
            "(torus, CR, load 0.1)");
    t.setHeader({"nodes", "shards", "flit_events"});
    // Host figures, printed on `timing:` lines after the table.
    std::vector<std::string> host;

    double speedup4kPlus = 0.0;  // Best 4-shard speedup at >= 4k.
    for (std::uint32_t k : radixes) {
        double baseRate = 0.0;
        long sizeRssKb = 0;
        for (unsigned shards : {1u, 2u, 4u}) {
            SimConfig cfg = base;
            cfg.radixK = k;
            cfg.shards = shards;
            const auto nodes = cfg.numNodes();

            Network net(cfg);
            net.run(warmup);
            const std::uint64_t before =
                net.stats().flitsInjected.value() +
                net.stats().router.flitsForwarded.value() +
                net.stats().flitsConsumed.value();
            const auto start = std::chrono::steady_clock::now();
            net.run(timed);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const std::uint64_t events =
                net.stats().flitsInjected.value() +
                net.stats().router.flitsForwarded.value() +
                net.stats().flitsConsumed.value() - before;
            record(1, wall, events);
            suiteTotals().shards = shards;

            const double rate = static_cast<double>(events) / wall;
            if (shards == 1) {
                baseRate = rate;
                sizeRssKb = peakRssKb() - rssBaseKb;
            }
            const double speedup = rate / baseRate;
            if (shards == 4 && nodes >= 4096)
                speedup4kPlus = std::max(speedup4kPlus, speedup);
            t.addRow({Table::cell(nodes),
                      Table::cell(std::uint64_t{shards}),
                      Table::cell(events)});
            host.push_back(
                "timing: nodes=" + Table::cell(nodes) +
                " shards=" + Table::cell(std::uint64_t{shards}) +
                " wall_s=" + Table::cell(wall, 3) +
                " Mev_per_s=" + Table::cell(rate / 1e6, 2) +
                " speedup=" + Table::cell(speedup, 2) + " node_kb=" +
                Table::cell(static_cast<double>(sizeRssKb) /
                                static_cast<double>(nodes),
                            2));
        }
    }
    emit(t);
    std::printf("expected shape: sharding pays off past ~4k nodes (the "
                "speedup on the timing: lines)\nwhile memory per node "
                "stays flat — the SoA pools scale linearly.\n");
    for (const std::string& line : host)
        std::printf("%s\n", line.c_str());
    std::printf("timing: best_4shard_speedup_from_4k=%.2f\n",
                speedup4kPlus);
    timingFooter();
    return 0;
}
