#include "src/core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include "src/core/annotations.hh"
#include "src/sim/log.hh"
#include "src/sim/parallel.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/walltime.hh"

namespace crnet {

namespace {

/** Drain-phase step size; the last step is clamped to the budget. */
constexpr Cycle kDrainQuantum = 256;

} // namespace

RunResult
summarize(const Network& net, bool drained, Cycle cycles)
{
    const NetworkStats& s = net.stats();
    const SimConfig& cfg = net.config();
    RunResult r;
    r.offeredLoad = cfg.injectionRate;
    r.measuredMessages = net.measuredCreated();
    r.deliveredMeasured = s.measuredDelivered.value();
    r.avgLatency = s.totalLatency.mean();
    r.netLatency = s.netLatency.mean();
    r.latencyStddev = s.totalLatency.stddev();
    r.maxLatency = s.totalLatency.max();
    r.p50Latency = s.latencyHist.percentile(0.50);
    r.p95Latency = s.latencyHist.percentile(0.95);
    r.p99Latency = s.latencyHist.percentile(0.99);
    r.avgAttempts = s.attempts.mean();
    r.totalKills = s.sourceKills.value() +
                   s.router.pathWideKills.value();
    r.pathWideKills = s.router.pathWideKills.value();
    r.killsPerMessage = r.deliveredMeasured
        ? static_cast<double>(r.totalKills) /
              static_cast<double>(r.deliveredMeasured)
        : 0.0;
    r.padOverhead = s.padOverhead.mean();
    r.escapeAllocations = s.router.escapeAllocations.value();
    r.misrouteHops = s.router.misrouteHops.value();
    r.corruptedDeliveries = s.corruptedDeliveries.value();
    r.orderViolations = s.orderViolations.value();
    r.duplicateDeliveries = s.duplicateDeliveries.value();
    r.refusals = s.refusals.value();
    r.deadlocked = net.deadlocked();
    r.drained = drained;
    r.cyclesRun = cycles;
    r.flitEvents = s.flitsInjected.value() +
                   s.router.flitsForwarded.value() +
                   s.flitsConsumed.value();
    r.latencyOverflow = s.latencyHist.overflow();
    r.timeseries = net.timeseriesSamples();
    r.heatmap = net.collectHeatmap();
    if (cfg.measureCycles > 0) {
        r.acceptedThroughput =
            static_cast<double>(s.measuredPayloadFlits.value()) /
            (static_cast<double>(net.topology().numNodes()) *
             static_cast<double>(cfg.measureCycles));
    }
    return r;
}

namespace {

/**
 * Warn that `r`'s latency histogram saturated, once per process: every
 * saturated run would repeat the same advice, and replicated sweeps
 * run thousands of points. Called on the thread that collects the
 * results, in index order, so which run it names never depends on
 * which run finished first.
 */
void
warnIfSaturated(const RunResult& r)
{
    CRNET_ALLOW("global-state",
                "once-per-process advice latch; atomic, write-once, "
                "and never read by anything result-affecting")
    static std::atomic<bool> warned{false};
    if (r.latencyOverflow > 0 && !warned.exchange(true)) {
        warn("latency histogram saturated (", r.latencyOverflow,
             " samples above the top bin); p50/p95/p99 are lower "
             "bounds for this run");
    }
}

/**
 * Measurement window + drain over an already-warm network. When a
 * profiler is passed it receives the measure/drain phase split and
 * its accumulated data is copied into the result's profile block.
 */
RunResult
measureAndDrain(Network& net, const SimConfig& cfg, TickProfiler* prof)
{
    const WallTimer phase;
    net.setMeasuring(true);
    net.run(cfg.measureCycles);
    net.setMeasuring(false);
    const double measure_s = phase.seconds();

    // Drain: keep offered load applied; wait for tagged messages.
    // The final step is clamped so cyclesRun honors cfg.drainCycles
    // exactly instead of overrunning by up to a whole quantum.
    bool drained = net.measuredDrained();
    Cycle spent = 0;
    while (!drained && spent < cfg.drainCycles && !net.deadlocked()) {
        const Cycle step =
            std::min(kDrainQuantum, cfg.drainCycles - spent);
        net.run(step);
        spent += step;
        drained = net.measuredDrained();
    }
    RunResult r = summarize(net, drained, net.now());
    if (prof != nullptr) {
        ProfileData& p = prof->data();
        p.measureSeconds += measure_s;
        p.drainSeconds += phase.seconds() - measure_s;
        r.profile = p;
    }
    return r;
}

/** One run, warmup to drain; runExperiment without the warning. */
RunResult
runOne(const SimConfig& cfg)
{
    const WallTimer timer;
    Network net(cfg);
    TickProfiler prof;
    const bool profiled = cfg.profileEnabled;
    if (profiled)
        net.attachProfiler(&prof);

    // Warmup: traffic flows, nothing is tagged.
    net.setMeasuring(false);
    net.run(cfg.warmupCycles);
    if (profiled)
        prof.data().warmupSeconds = timer.seconds();

    RunResult r = measureAndDrain(net, cfg, profiled ? &prof : nullptr);
    r.wallSeconds = timer.seconds();
    return r;
}

} // namespace

RunResult
runExperiment(const SimConfig& cfg)
{
    RunResult r = runOne(cfg);
    warnIfSaturated(r);
    return r;
}

std::vector<RunResult>
runMany(const std::vector<SimConfig>& points)
{
    std::vector<RunResult> out(points.size());
    const unsigned jobs =
        resolveJobs(points.empty() ? 0 : points.front().jobs);

    // Live status (status=<path>): one shared writer for the whole
    // batch, reporting run starts/completions. Purely observational —
    // results are identical with or without it.
    std::unique_ptr<StatusWriter> status;
    if (!points.empty() && !points.front().statusFile.empty()) {
        status = std::make_unique<StatusWriter>(
            points.front().statusFile,
            points.front().statusEverySeconds, "sweep", points.size(),
            jobs);
    }

    parallelFor(points.size(), jobs, [&](std::size_t i) {
        // Give each run its own trace/time-series sink: suffix the
        // prefix so jobs=N writes N distinct files whose bytes match a
        // jobs=1 batch run-for-run.
        SimConfig cfg = points[i];
        if (points.size() > 1 && !cfg.traceFile.empty())
            cfg.traceFile += "_run" + std::to_string(i);
        if (status != nullptr)
            status->unitPhase(i, "run", 0);
        out[i] = runOne(cfg);
        if (status != nullptr) {
            StatusWriter::UnitRow row;
            row.index = i;
            row.seed = cfg.seed;
            row.ok = out[i].drained && !out[i].deadlocked;
            row.deadlocked = out[i].deadlocked;
            row.accepted = out[i].measuredMessages;
            row.delivered = out[i].deliveredMeasured;
            row.cycles = out[i].cyclesRun;
            status->unitDone(row, {});
        }
    });
    if (status != nullptr)
        status->finish();
    for (std::size_t i = 0; i < out.size(); ++i) {
        const LogRunScope scope(static_cast<std::int64_t>(i));
        warnIfSaturated(out[i]);
    }
    return out;
}

std::vector<RunResult>
sweepLoads(SimConfig cfg, const std::vector<double>& loads)
{
    std::vector<SimConfig> points(loads.size(), cfg);
    for (std::size_t i = 0; i < loads.size(); ++i)
        points[i].injectionRate = loads[i];
    return runMany(points);
}

namespace {

/** Fold independent runs into the replication summary (input order). */
ReplicatedResult
foldReplications(const std::vector<RunResult>& runs)
{
    Accumulator lat, thr, kills;
    ReplicatedResult out;
    out.replications = static_cast<std::uint32_t>(runs.size());
    for (const RunResult& r : runs) {
        lat.add(r.avgLatency);
        thr.add(r.acceptedThroughput);
        kills.add(r.killsPerMessage);
        out.allDrained = out.allDrained && r.drained;
        out.anyDeadlock = out.anyDeadlock || r.deadlocked;
        out.flitEvents += r.flitEvents;
        out.profile.merge(r.profile);
    }
    const double root_n =
        std::sqrt(static_cast<double>(runs.size()));
    out.meanLatency = lat.mean();
    out.meanThroughput = thr.mean();
    out.meanKillsPerMessage = kills.mean();
    // A single replication has no spread to estimate: the interval is
    // exactly 0, not a degenerate one-sample stddev.
    if (runs.size() > 1) {
        out.latencyCi95 = 1.96 * lat.stddev() / root_n;
        out.throughputCi95 = 1.96 * thr.stddev() / root_n;
    }
    return out;
}

} // namespace

ReplicatedResult
runReplicated(SimConfig cfg, std::uint32_t replications)
{
    if (replications == 0)
        fatal("runReplicated needs at least one replication");
    const WallTimer timer;
    std::vector<SimConfig> points(replications, cfg);
    for (std::uint32_t i = 0; i < replications; ++i)
        points[i].seed = cfg.seed + i;
    const std::vector<RunResult> runs = runMany(points);
    ReplicatedResult out = foldReplications(runs);
    out.wallSeconds = timer.seconds();
    return out;
}

SaturationResult
findSaturation(SimConfig cfg, double lo, double hi, double tolerance,
               double latency_cap)
{
    if (lo >= hi)
        fatal("findSaturation: lo must be < hi");
    const WallTimer timer;
    SaturationResult res;
    auto healthy = [&](double load) {
        cfg.injectionRate = load;
        const RunResult r = runExperiment(cfg);
        ++res.probes;
        res.flitEvents += r.flitEvents;
        res.profile.merge(r.profile);
        return r.drained && !r.deadlocked &&
               r.avgLatency < latency_cap;
    };
    if (!healthy(lo)) {
        res.load = lo;
        res.belowRange = true;
        res.wallSeconds = timer.seconds();
        return res;
    }
    while (hi - lo > tolerance) {
        const double mid = (lo + hi) / 2.0;
        if (healthy(mid))
            lo = mid;
        else
            hi = mid;
    }
    res.load = lo;
    res.wallSeconds = timer.seconds();
    return res;
}

} // namespace crnet
