/**
 * @file
 * Shared scaffolding for the per-figure/table benchmark harnesses.
 *
 * Every bench binary accepts `key=value` overrides (see
 * SimConfig::set) so the paper-scale network (k=16) can be requested
 * explicitly: the default k=8 keeps the full suite fast while
 * preserving every qualitative result.
 */

#ifndef CRNET_BENCH_BENCH_COMMON_HH
#define CRNET_BENCH_BENCH_COMMON_HH

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/presets.hh"
#include "src/core/timeseries.hh"
#include "src/fault/campaign.hh"
#include "src/sim/config.hh"
#include "src/sim/parallel.hh"
#include "src/sim/table.hh"

namespace crnet::bench {

/** The evaluation baseline network: preset `eval_base`, profiled. */
inline SimConfig
baseConfig()
{
    SimConfig cfg = presetConfig("eval_base");
    // Benches self-profile by default (`profile:` footer). Off the
    // results path: stats/traces are byte-identical either way, and
    // CI byte-diff steps strip the footer like `timing:`.
    cfg.profileEnabled = true;
    return cfg;
}

/** Offered loads swept by the latency/throughput figures. */
inline std::vector<double>
defaultLoads()
{
    return {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45,
            0.50};
}

/** Format a latency for a cell ("-" once the point failed to drain). */
inline std::string
latencyCell(const RunResult& r)
{
    if (r.deadlocked)
        return "deadlock";
    if (!r.drained) {
        // Appended, not concatenated: GCC 12's -Wrestrict misfires on
        // `"..." + std::string + "..."` at -O3.
        std::string cell = ">";
        cell += Table::cell(r.avgLatency, 0);
        cell += '*';
        return cell;
    }
    return Table::cell(r.avgLatency, 1);
}

/** Print and also emit CSV below the table for post-processing. */
inline void
emit(const Table& table)
{
    table.print(std::cout);
    std::cout << "\ncsv:\n";
    table.printCsv(std::cout);
    std::cout << "\n";
}

/**
 * Emit a run's time-series below the table, framed by a `timeseries:`
 * marker that tools/extract_csv.py collects like `csv:` blocks.
 */
inline void
emitTimeSeries(const RunResult& r)
{
    if (r.timeseries.empty())
        return;
    std::cout << "timeseries:\n";
    writeTimeSeriesCsv(std::cout, r.timeseries);
    std::cout << "\n";
}

/** Same for the channel heatmap (`heatmap:` marker). */
inline void
emitHeatmap(const RunResult& r)
{
    if (r.heatmap == nullptr)
        return;
    std::cout << "heatmap:\n";
    writeHeatmapCsv(std::cout, *r.heatmap);
    std::cout << "\n";
}

/**
 * Cumulative engine-work totals behind the bench timing footer.
 * Every experiment a bench runs should flow through sweep()/runOne()
 * or be record()ed, so the footer reflects the whole process.
 */
struct SuiteTotals
{
    std::size_t runs = 0;          //!< Simulations executed.
    double wallSeconds = 0.0;      //!< Engine wall-clock (batch spans).
    std::uint64_t flitEvents = 0;  //!< Total data-flit events.
    unsigned jobs = 1;             //!< Worker threads last used.
    unsigned shards = 1;           //!< Intra-run shards last used.
    ProfileData profile;           //!< Merged self-profiles.
};

inline SuiteTotals&
suiteTotals()
{
    static SuiteTotals totals;
    return totals;
}

/** Fold a finished batch into the process totals. */
inline void
record(std::size_t runs, double wall_seconds,
       std::uint64_t flit_events)
{
    SuiteTotals& t = suiteTotals();
    t.runs += runs;
    t.wallSeconds += wall_seconds;
    t.flitEvents += flit_events;
}

inline void
record(const ReplicatedResult& r)
{
    record(r.replications, r.wallSeconds, r.flitEvents);
    suiteTotals().profile.merge(r.profile);
}

inline void
record(const SaturationResult& r)
{
    record(r.probes, r.wallSeconds, r.flitEvents);
    suiteTotals().profile.merge(r.profile);
}

inline void
record(const CampaignSummary& s)
{
    record(s.trials, s.wallSeconds, s.flitEvents);
    suiteTotals().profile.merge(s.profile);
}

/**
 * Run a batch of independent configuration points through the
 * parallel engine (`jobs=` override; sequential by default), timing
 * the batch for the footer. Results come back in input order,
 * bit-identical to a sequential run.
 */
inline std::vector<RunResult>
sweep(const std::vector<SimConfig>& points)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> out = runMany(points);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::uint64_t flit_events = 0;
    for (const RunResult& r : out) {
        flit_events += r.flitEvents;
        suiteTotals().profile.merge(r.profile);
    }
    suiteTotals().jobs =
        resolveJobs(points.empty() ? 0 : points.front().jobs);
    suiteTotals().shards =
        resolveShards(points.empty() ? 0 : points.front().shards);
    record(points.size(), wall, flit_events);
    return out;
}

/** Run one point through sweep() so it counts toward the footer. */
inline RunResult
runOne(const SimConfig& cfg)
{
    return sweep({cfg}).front();
}

/** Process peak resident set in kB (getrusage; 0 when unavailable). */
inline long
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss;  // Linux reports kilobytes.
}

/**
 * Machine-parseable wall-clock footer (one line, no commas — the
 * `csv:` block scanner stops at it): the bench's host time and work
 * rate, read by people and by the byte-diffs that strip it.
 */
inline void
timingFooter()
{
    const SuiteTotals& t = suiteTotals();
    const double wall = t.wallSeconds > 0.0 ? t.wallSeconds : 1e-9;
    std::printf("timing: runs=%zu wall_s=%.3f sims_per_s=%.2f "
                "flit_events=%llu flit_events_per_s=%.3e jobs=%u "
                "shards=%u cores=%u peak_rss_kb=%ld\n",
                t.runs, t.wallSeconds,
                static_cast<double>(t.runs) / wall,
                static_cast<unsigned long long>(t.flitEvents),
                static_cast<double>(t.flitEvents) / wall, t.jobs,
                t.shards, hardwareJobs(), peakRssKb());
    // Self-profiler footer (same one-line no-comma contract as
    // `timing:`). Always printed — CI asserts its presence — with
    // enabled=0 and zeros when the bench ran with profile=0.
    const ProfileData& p = t.profile;
    std::printf(
        "profile: enabled=%d runs=%zu warmup_s=%.3f measure_s=%.3f "
        "drain_s=%.3f ticks=%llu sampled=%llu stride=%u "
        "tick_deliver_s=%.3f tick_generate_s=%.3f "
        "tick_injectors_s=%.3f tick_routers_s=%.3f "
        "tick_receivers_s=%.3f tick_audit_s=%.3f tick_sample_s=%.3f\n",
        p.enabled ? 1 : 0, t.runs, p.warmupSeconds, p.measureSeconds,
        p.drainSeconds, static_cast<unsigned long long>(p.ticks),
        static_cast<unsigned long long>(p.sampledTicks), p.stride,
        p.tickSeconds(TickPhase::Deliver),
        p.tickSeconds(TickPhase::Generate),
        p.tickSeconds(TickPhase::Injectors),
        p.tickSeconds(TickPhase::Routers),
        p.tickSeconds(TickPhase::Receivers),
        p.tickSeconds(TickPhase::Audit),
        p.tickSeconds(TickPhase::Sample));
}

} // namespace crnet::bench

#endif // CRNET_BENCH_BENCH_COMMON_HH
