/**
 * @file
 * Sec. 7 — alternate timeout schemes: source-based (stall counter and
 * I_min progress bound) vs the path-wide scheme where every router
 * kills worms that stall near it, plus the BBN-Butterfly-style
 * drop-at-block discipline from the related work (Sec. 8), where a
 * router rejects any header blocked in front of it.
 *
 * Expected shape at the default config: below saturation (loads 0.15
 * and 0.30) the router-driven schemes, identical there, kill more per
 * message than either source-based scheme (the paper's "unnecessary
 * message kills"): 1.8-2.8x src_imin's rate and 3-27% above
 * src_stall's, at about the same latency. Past saturation (0.45) the
 * paper's "inferior performance" does not show: the router-driven
 * schemes have the lowest latency and path-wide the fewest kills,
 * while src_imin, which kills least below saturation, has the highest
 * latency there.
 */

#include "bench/bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    SimConfig base = baseConfig();
    base.timeout = 16;
    base.applyArgs(argc, argv);

    const std::vector<double> loads = {0.15, 0.30, 0.45};

    Table t("Timeout schemes: latency and kills/msg (timeout=16)");
    t.setHeader({"load", "src_stall_lat", "src_stall_kills",
                 "src_imin_lat", "src_imin_kills", "path_wide_lat",
                 "path_wide_kills", "drop_at_block_lat",
                 "drop_at_block_kills"});

    const std::vector<TimeoutScheme> schemes = {
        TimeoutScheme::SourceStall, TimeoutScheme::SourceImin,
        TimeoutScheme::PathWide, TimeoutScheme::DropAtBlock};
    std::vector<SimConfig> points;
    points.reserve(loads.size() * schemes.size());
    for (double load : loads) {
        for (auto scheme : schemes) {
            SimConfig cfg = base;
            cfg.injectionRate = load;
            cfg.timeoutScheme = scheme;
            points.push_back(cfg);
        }
    }
    const std::vector<RunResult> results = sweep(points);

    for (std::size_t li = 0; li < loads.size(); ++li) {
        std::vector<std::string> row = {Table::cell(loads[li], 2)};
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const RunResult& r = results[li * schemes.size() + si];
            row.push_back(latencyCell(r));
            row.push_back(Table::cell(r.killsPerMessage, 3));
        }
        t.addRow(row);
    }
    emit(t);
    std::printf("expected shape: below saturation (0.15, 0.30) "
                "path-wide and\ndrop-at-block kill more per message "
                "than both source-based schemes at\nabout the same "
                "latency; past saturation (0.45) they have the "
                "lowest\nlatency, path-wide the fewest kills, and "
                "src_imin the highest latency.\n");
    timingFooter();
    return 0;
}
