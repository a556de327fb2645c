/**
 * @file
 * FCR with permanent link faults: performance and delivery as dead
 * links accumulate.
 *
 * Expected shape: latency rises gently with the number of dead links
 * (paths lengthen, retries around blocked minimal routes appear) and
 * nothing is delivered corrupted. Up to 8 dead links every message
 * arrives — FCR's permanent fault tolerance via adaptive retry +
 * bounded misrouting. At 12 the network tips over: at the default
 * seed 17 of the 1,884 measured messages stay undelivered, because a
 * retry with misroute budget misroutes whenever its minimal VCs are
 * busy, not only when their links are dead (ROADMAP.md, "Misrouting
 * as a last resort").
 */

#include "bench/bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    base.protocol = ProtocolKind::Fcr;
    base.injectionRate = 0.10;
    base.timeout = 32;
    base.misrouteAfterRetries = 2;
    base.misrouteBudget = 4;
    base.applyArgs(argc, argv);

    const std::vector<std::uint32_t> fault_counts = {0, 1, 2, 4, 8,
                                                     12};

    Table t("FCR with permanent link faults (load 0.10)");
    t.setHeader({"dead_links", "avg_lat", "p99_lat", "attempts",
                 "kills", "misroute_hops", "delivered", "failed",
                 "corrupt"});

    std::vector<SimConfig> points;
    points.reserve(fault_counts.size());
    for (auto faults : fault_counts) {
        SimConfig cfg = base;
        cfg.permanentLinkFaults = faults;
        points.push_back(cfg);
    }
    const std::vector<RunResult> results = sweep(points);

    for (std::size_t fi = 0; fi < fault_counts.size(); ++fi) {
        const RunResult& r = results[fi];
        t.addRow({Table::cell(std::uint64_t{fault_counts[fi]}),
                  latencyCell(r),
                  Table::cell(r.p99Latency, 0),
                  Table::cell(r.avgAttempts, 3),
                  Table::cell(r.totalKills),
                  Table::cell(r.misrouteHops),
                  Table::cell(r.deliveredMeasured),
                  Table::cell(r.measuredMessages - r.deliveredMeasured),
                  Table::cell(r.corruptedDeliveries)});
    }
    emit(t);
    std::printf("expected shape: graceful latency growth and zero "
                "corruption; zero failures\nup to 8 dead links, some "
                "messages undelivered at 12 (retries misroute before\n"
                "their minimal links are dead); misrouting appears once "
                "faults block whole\nminimal-path sets.\n");
    timingFooter();
    return 0;
}
