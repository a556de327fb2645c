/**
 * @file
 * Saturation-throughput summary: the single number the paper's
 * conclusions lean on, per routing/protocol, across message lengths —
 * with replicated runs and indicative 95% intervals at a fixed
 * near-saturation load.
 *
 * Expected shape: CR's saturation load and its accepted throughput at
 * a deep operating point exceed DOR's at equal resources; Duato (the
 * VC-based adaptive baseline) lands between them but needs 3 VCs to
 * exist at all.
 */

#include "bench/bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    base.applyArgs(argc, argv);

    struct Row
    {
        const char* name;
        RoutingKind routing;
        ProtocolKind protocol;
        std::uint32_t vcs;
    };
    const Row rows[] = {
        {"CR  (adaptive, 2vc)", RoutingKind::MinimalAdaptive,
         ProtocolKind::Cr, 2},
        {"DOR (2vc dateline)", RoutingKind::DimensionOrder,
         ProtocolKind::None, 2},
        {"Duato (3vc)", RoutingKind::Duato, ProtocolKind::None, 3},
    };

    for (std::uint32_t msg_len : {16u, 32u}) {
        Table t("Saturation summary, " + std::to_string(msg_len) +
                "-flit messages (sat load via binary search; "
                "throughput at load 0.45, 5 seeds)");
        t.setHeader({"design", "sat_load", "thr@0.45", "thr_ci95",
                     "lat@0.45", "lat_ci95", "kills/msg"});
        for (const Row& row : rows) {
            SimConfig cfg = base;
            cfg.routing = row.routing;
            cfg.protocol = row.protocol;
            cfg.numVcs = row.vcs;
            cfg.messageLength = msg_len;
            cfg.timeout = msg_len;
            SimConfig fast = cfg;
            fast.measureCycles = 2500;
            fast.drainCycles = 20000;
            const SaturationResult sat =
                findSaturation(fast, 0.05, 0.95, 0.02, 1500.0);
            record(sat);
            // belowRange: even the lower probe failed health — the
            // design saturates before load 0.05.
            // Appended, not concatenated: GCC 12's -Wrestrict misfires
            // on `"..." + std::string` at -O3.
            std::string sat_cell = sat.belowRange ? "<" : "";
            sat_cell += Table::cell(sat.load, 2);

            SimConfig deep = cfg;
            deep.injectionRate = 0.45;
            const ReplicatedResult rep = runReplicated(deep, 5);
            record(rep);
            t.addRow({row.name, sat_cell,
                      Table::cell(rep.meanThroughput, 3),
                      Table::cell(rep.throughputCi95, 3),
                      Table::cell(rep.meanLatency, 0),
                      Table::cell(rep.latencyCi95, 0),
                      Table::cell(rep.meanKillsPerMessage, 3)});
        }
        emit(t);
    }
    std::printf("expected shape: CR saturation load > Duato > DOR; "
                "intervals small enough\nthat the ordering is not "
                "noise.\n");
    suiteTotals().jobs = resolveJobs(base.jobs);
    timingFooter();
    return 0;
}
