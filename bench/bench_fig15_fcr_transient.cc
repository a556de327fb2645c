/**
 * @file
 * Sec. 6.2 — FCR performance under a range of transient fault rates.
 *
 * Expected shape: latency and delivered throughput degrade gracefully
 * as the per-flit-hop fault rate grows (each detected fault costs one
 * kill + one retransmission); corrupted deliveries stay at exactly
 * zero at every rate — FCR's nonstop fault-tolerance guarantee. A CR
 * column shows the contrast: same faults, corrupted data reaching
 * software.
 */

#include <algorithm>

#include "bench/bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    base.protocol = ProtocolKind::Fcr;
    base.injectionRate = 0.15;
    base.timeout = 32;
    base.applyArgs(argc, argv);

    const std::vector<double> rates = {0.0,    1e-5, 3e-5, 1e-4,
                                       3e-4,   1e-3, 3e-3};

    Table t("FCR under transient faults (load 0.15): latency, "
            "retries, delivery integrity");
    t.setHeader({"fault_rate", "FCR_lat", "FCR_thr", "attempts",
                 "refusals", "FCR_corrupt_deliv", "CR_corrupt_deliv"});

    // Row-major batch: (FCR, CR) per fault rate.
    std::vector<SimConfig> points;
    points.reserve(2 * rates.size());
    for (double rate : rates) {
        SimConfig fcr = base;
        fcr.transientFaultRate = rate;
        points.push_back(fcr);

        SimConfig cr = base;
        cr.protocol = ProtocolKind::Cr;
        cr.transientFaultRate = rate;
        points.push_back(cr);
    }
    const std::vector<RunResult> results = sweep(points);

    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        const double rate = rates[ri];
        const RunResult& rf = results[2 * ri];
        const RunResult& rc = results[2 * ri + 1];

        t.addRow({Table::cell(rate, 5), latencyCell(rf),
                  Table::cell(rf.acceptedThroughput, 3),
                  Table::cell(rf.avgAttempts, 3),
                  Table::cell(rf.refusals),
                  Table::cell(rf.corruptedDeliveries),
                  Table::cell(rc.corruptedDeliveries)});
    }
    emit(t);
    std::printf("expected shape: FCR corrupted deliveries = 0 at every "
                "rate; latency grows\ngracefully; plain CR lets "
                "corrupted messages through.\n");

    // Recovery trace: one FCR run where two links die mid-measurement
    // and are repaired shortly after. The interval-sampled time
    // series (see docs/OBSERVABILITY.md) shows the kill-rate spike at
    // the fault window and throughput recovering once retries drain;
    // the heatmap shows which channels absorbed the detour traffic.
    // Both events fall inside any measurement window: the kill at
    // most halfway in, the repair at most a quarter of it later
    // (1500 and 1000 cycles at the default window).
    SimConfig rec = base;
    rec.transientFaultRate = 0.0;
    rec.dynamicLinkKills = 2;
    rec.faultWindowStart =
        rec.warmupCycles + std::min<Cycle>(1500, rec.measureCycles / 2);
    rec.faultWindowEnd = rec.faultWindowStart + 1;
    rec.linkRepairAfter = std::min<Cycle>(1000, rec.measureCycles / 4);
    rec.sampleInterval = 250;
    rec.heatmapEnabled = true;
    const RunResult rr = runOne(rec);
    std::printf("recovery run: faults at cycle %llu, repair after "
                "%llu cycles, kills=%llu\n",
                static_cast<unsigned long long>(rec.faultWindowStart),
                static_cast<unsigned long long>(rec.linkRepairAfter),
                static_cast<unsigned long long>(rr.totalKills));
    emitTimeSeries(rr);
    emitHeatmap(rr);

    timingFooter();
    return 0;
}
