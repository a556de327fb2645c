/**
 * @file
 * Zero-load latency — the left edge of the paper's latency/throughput
 * curves (Figs. 10-12), sampled at offered loads well below
 * saturation where contention is rare and latency approaches the
 * no-load bound (hop count + serialization + padding overhead).
 *
 * Expected shape: latency is flat across these loads and CR pays its
 * constant padding tax over an unprotected network; kills/msg is ~0
 * because timeouts only misfire under congestion.
 *
 * This regime is also the active-set scheduler's best case — most
 * components are asleep on most cycles — so the bench doubles as the
 * measure of scheduler speedup at low load (docs/PERFORMANCE.md §6).
 */

#include "bench/bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    // Low loads deliver few messages per cycle; stretch the window so
    // every point still averages over thousands of deliveries.
    base.measureCycles = 20000;
    base.applyArgs(argc, argv);

    const std::vector<double> loads = {0.01, 0.02, 0.04, 0.08};
    const std::vector<ProtocolKind> protos = {ProtocolKind::Cr,
                                              ProtocolKind::Fcr};

    Table t("Zero-load latency: avg latency (kills/msg) by offered "
            "load");
    std::vector<std::string> header = {"protocol"};
    for (double load : loads)
        header.push_back("load_" + Table::cell(load, 2));
    t.setHeader(header);

    std::vector<SimConfig> points;
    points.reserve(protos.size() * loads.size());
    for (ProtocolKind proto : protos) {
        for (double load : loads) {
            SimConfig cfg = base;
            cfg.protocol = proto;
            cfg.injectionRate = load;
            points.push_back(cfg);
        }
    }
    const std::vector<RunResult> results = sweep(points);

    for (std::size_t pi = 0; pi < protos.size(); ++pi) {
        std::vector<std::string> row = {toString(protos[pi])};
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const RunResult& r = results[pi * loads.size() + li];
            row.push_back(latencyCell(r) + " (" +
                          Table::cell(r.killsPerMessage, 2) + ")");
        }
        t.addRow(row);
    }
    emit(t);
    timingFooter();
    return 0;
}
