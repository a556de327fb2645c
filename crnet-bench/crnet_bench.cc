/**
 * @file
 * crnet-bench: runs one workload against the crnet engine, checks its
 * outputs and prints every metric by name with its unit.
 *
 * The benchmark measures the engine from outside, through the public
 * entry points of each layer (module names as in src/):
 *   core     Network constructor / run / stats(), runExperiment, the
 *            attached TickProfiler and the telemetry registry;
 *   router   Router::tick, Router::StatePool::bytes;
 *   routing  MinimalAdaptiveRouting::candidates;
 *   nic      Injector::tick, Receiver::tick;
 *   traffic  TrafficGenerator::scanArrivals;
 *   fault    runCampaign trials under the delivery ledger;
 *   sim      captureSnapshot.
 *
 * Usage:
 *   crnet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--trace-out <path>]
 *
 * --trace 0 runs the workload untraced (profile=0) pass after pass for
 * --seconds and reports the end-to-end metrics. --trace 1 runs one
 * untraced pass, one traced pass (profiler attached, spans around every
 * layer call) and the standalone layer timings, checks that the traced
 * pass reproduced the untraced pass's exact counts, and reports the
 * per-layer metrics; the spans are written to --trace-out at exit.
 *
 * The last line of standard output is the result object
 * {"correct", "attempted", "failed", "metrics"}; the lines before it
 * are a readable report. The exit code is 0 only when every op passed
 * its checks.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/fault/fault_model.hh"
#include "src/nic/injector.hh"
#include "src/nic/receiver.hh"
#include "src/router/router.hh"
#include "src/routing/routing.hh"
#include "src/sim/parallel.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/telemetry.hh"
#include "src/topology/topology.hh"
#include "src/traffic/generator.hh"

namespace {

using namespace crnet;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** splitmix64: decorrelates the per-op seeds drawn from one seed. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    return mix(seed ^ mix(index + 1));
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class OpKind { Point, Trial, Giant };

/**
 * One unit of work: an experiment point (runExperiment), a campaign
 * trial (runCampaign with one trial) or the giant-torus run.
 */
struct Op
{
    OpKind kind = OpKind::Point;
    std::string label;
    SimConfig cfg;
    // Trials: runCampaign's watchdog parameters.
    Cycle drainCap = CampaignConfig{}.drainCap;
    std::uint32_t trialRetries = CampaignConfig{}.trialRetries;
    // Giant: the window split (statistics cover both parts).
    Cycle warmup = 0;
    Cycle timed = 0;
};

struct Workload
{
    std::string name;
    std::vector<Op> ops;
};

/** The paper's baseline: CR on an 8-ary 2-cube, 2 VCs of depth 2. */
SimConfig
paperBase()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.messageLength = 16;
    cfg.timeout = 8;
    cfg.jobs = 1;
    cfg.shards = 1;
    cfg.profileEnabled = false;
    return cfg;
}

std::string
fmt(const char* f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/** Fig. 12 grid: timeouts {4..256} x loads {0.20, 0.35, 0.45}. */
Workload
paperMidload(std::uint64_t seed)
{
    Workload w{"paper_midload", {}};
    std::uint64_t i = 0;
    for (Cycle to : {4, 8, 16, 32, 64, 128, 256}) {
        for (double load : {0.20, 0.35, 0.45}) {
            Op op;
            op.label = "cr to=" + std::to_string(to) + " load=" +
                       fmt("%.2f", load);
            op.cfg = paperBase();
            op.cfg.timeout = to;
            op.cfg.injectionRate = load;
            op.cfg.warmupCycles = 300;
            op.cfg.measureCycles = 400;
            // Saturated points stop after this drain budget; they are
            // reported as undrained, not failed.
            op.cfg.drainCycles = 500;
            op.cfg.seed = deriveSeed(seed, i++);
            w.ops.push_back(op);
        }
    }
    return w;
}

/** CR and FCR at loads {0.01..0.08} with a long measurement window. */
Workload
paperLowload(std::uint64_t seed)
{
    Workload w{"paper_lowload", {}};
    std::uint64_t i = 0;
    for (ProtocolKind proto : {ProtocolKind::Cr, ProtocolKind::Fcr}) {
        for (double load : {0.01, 0.02, 0.04, 0.08}) {
            Op op;
            op.label = toString(proto) + " load=" + fmt("%.2f", load);
            op.cfg = paperBase();
            op.cfg.protocol = proto;
            op.cfg.injectionRate = load;
            op.cfg.warmupCycles = 500;
            op.cfg.measureCycles = 12000;
            op.cfg.drainCycles = 60000;
            op.cfg.seed = deriveSeed(seed, i++);
            w.ops.push_back(op);
        }
    }
    return w;
}

/** FCR under 2 dynamic link kills per trial, N trials in sequence. */
Workload
faultCampaign(std::uint64_t seed)
{
    Workload w{"fault_campaign", {}};
    const std::uint64_t seedBase = deriveSeed(seed, 0);
    constexpr std::uint32_t kTrials = 4;
    for (std::uint32_t t = 0; t < kTrials; ++t) {
        Op op;
        op.kind = OpKind::Trial;
        op.label = "fcr trial " + std::to_string(t);
        op.cfg = paperBase();
        op.cfg.protocol = ProtocolKind::Fcr;
        op.cfg.injectionRate = 0.15;
        op.cfg.timeout = 32;
        op.cfg.maxRetries = 0;  // Retry forever.
        op.cfg.misrouteAfterRetries = 1;
        op.cfg.misrouteBudget = 4;
        op.cfg.dynamicLinkKills = 2;
        op.cfg.warmupCycles = 500;
        op.cfg.measureCycles = 1000;
        op.cfg.seed = seedBase + t;  // runCampaign: seedBase + trial.
        w.ops.push_back(op);
    }
    return w;
}

/** One 64x64 torus, sharded across up to 4 threads. */
Workload
giantTorus(std::uint64_t seed)
{
    Workload w{"giant_torus", {}};
    Op op;
    op.kind = OpKind::Giant;
    op.cfg = paperBase();
    op.cfg.radixK = 64;
    op.cfg.injectionRate = 0.1;
    op.cfg.messageLength = 8;
    op.cfg.shards = std::min(4u, hardwareJobs());
    op.warmup = 100;
    op.timed = 200;
    // Messages are tagged from cycle 0 (the window is far shorter than
    // a worm's lifetime), so throughput is normalized by both parts.
    op.cfg.warmupCycles = op.warmup;
    op.cfg.measureCycles = op.warmup + op.timed;
    op.cfg.seed = deriveSeed(seed, 0);
    op.label = "cr 64x64 shards=" + std::to_string(op.cfg.shards);
    w.ops.push_back(op);
    return w;
}

bool
makeWorkload(const std::string& name, std::uint64_t seed, Workload& out)
{
    if (name == "paper_midload")
        out = paperMidload(seed);
    else if (name == "paper_lowload")
        out = paperLowload(seed);
    else if (name == "fault_campaign")
        out = faultCampaign(seed);
    else if (name == "giant_torus")
        out = giantTorus(seed);
    else
        return false;
    return true;
}

// ---------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------

/** One traced interval around a layer call, relative to the origin. */
struct Span
{
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    bool estimated = false;  //!< Profiler extrapolation, not a clock pair.
};

/** In-memory span store; written out once at exit. */
class SpanLog
{
  public:
    int begin(const std::string& name, int parent)
    {
        spans_.push_back(Span{name, parent, now(), 0.0, false});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close a span; returns its duration in seconds. */
    double end(int id)
    {
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        return s.end - s.start;
    }

    void addEstimated(const std::string& name, int parent, double start,
                      double seconds)
    {
        spans_.push_back(Span{name, parent, start, start + seconds, true});
    }

    double startOf(int id) const
    {
        return spans_[static_cast<std::size_t>(id)].start;
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    double now() const { return since(origin_); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Tick phases the profiler splits each experiment phase into. */
constexpr TickPhase kTickPhases[] = {
    TickPhase::Deliver, TickPhase::Generate, TickPhase::Injectors,
    TickPhase::Routers, TickPhase::Receivers};

/** Per-layer totals accumulated over the traced pass. */
struct LayerTotals
{
    double warmupS = 0.0, measureS = 0.0, drainS = 0.0;
    double tickS[kNumTickPhases] = {};
    std::uint64_t cycles = 0;
    double nodeCycles = 0.0;
    std::uint64_t flitHops = 0, headersRouted = 0, killHops = 0,
                  flitsPurged = 0, sourceKills = 0, retransmits = 0,
                  flitsInjected = 0, padFlitsInjected = 0,
                  payloadFlitsDelivered = 0, receiverTimeouts = 0,
                  assembliesDiscarded = 0, sourceQueueDrops = 0,
                  faultEvents = 0, flitsLost = 0;
    std::size_t stateBytes = 0;
    std::uint64_t stateNodes = 0;
};

/**
 * Traced-run context handed to drivePoint/driveTrial/driveGiant: the
 * span log, the span of the current op, the profiler deltas and the
 * counters it sums.
 */
struct Trace
{
    SpanLog log;
    int workloadSpan = -1;
    int opSpan = -1;
    LayerTotals totals;
    bool wantSnapshot = true;
};

/**
 * Brackets one experiment phase: a span under the current op, summed
 * into `total` (if any), plus the attached profiler's tick-phase split
 * of that interval as estimated child spans. A no-op when the run is
 * untraced.
 */
class Phase
{
  public:
    Phase(Trace* tr, const TickProfiler& prof, const char* name,
          double LayerTotals::*total = nullptr)
        : tr_(tr), prof_(prof), total_(total)
    {
        if (tr_ == nullptr)
            return;
        before_ = prof_.data();
        id_ = tr_->log.begin(name, tr_->opSpan);
    }

    void end()
    {
        if (tr_ == nullptr)
            return;
        const double seconds = tr_->log.end(id_);
        if (total_ != nullptr)
            tr_->totals.*total_ += seconds;
        const ProfileData& after = prof_.data();
        ProfileData d;
        d.enabled = true;
        d.stride = after.stride;
        d.ticks = after.ticks - before_.ticks;
        d.sampledTicks = after.sampledTicks - before_.sampledTicks;
        if (d.ticks == 0)
            return;
        double at = tr_->log.startOf(id_);
        for (TickPhase ph : kTickPhases) {
            const auto i = static_cast<std::size_t>(ph);
            d.phaseNanos[i] = after.phaseNanos[i] - before_.phaseNanos[i];
            const double s = d.tickSeconds(ph);
            tr_->totals.tickS[i] += s;
            tr_->log.addEstimated(std::string("tick.") + toString(ph), id_,
                                  at, s);
            at += s;
        }
    }

  private:
    Trace* tr_;
    const TickProfiler& prof_;
    double LayerTotals::*total_;
    ProfileData before_;
    int id_ = -1;
};

// ---------------------------------------------------------------------
// Running one op
// ---------------------------------------------------------------------

/** Exact simulated outcome of one op, plus the host time it took. */
struct OpResult
{
    RunResult run;               //!< summarize() of the op's network.
    std::vector<double> laps;    //!< Untraced: host time of each stretch.
    double fastestRef = 0.0;     //!< Untraced: fastest reference run.
    std::uint64_t accepted = 0;  //!< Ledger accepts (trials).
    std::uint64_t ledgerDelivered = 0;
    bool accounted = true;       //!< Ledger fully accounted (trials).
    bool quarantined = false;
    bool isTrial = false;
    double seconds = 0.0;
};

/** Fold the network's exact counters into the traced-run totals. */
void
addCounts(Trace* tr, Network& net, const SimConfig& cfg)
{
    if (tr == nullptr)
        return;
    const NetworkStats& s = net.stats();
    LayerTotals& t = tr->totals;
    t.cycles += net.now();
    t.nodeCycles += static_cast<double>(net.now()) *
                    static_cast<double>(net.topology().numNodes());
    t.flitHops += s.router.flitsForwarded.value();
    t.headersRouted += s.router.headersRouted.value();
    t.killHops += s.router.killsForwarded.value() +
                  s.router.bkillHops.value();
    t.flitsPurged += s.router.flitsPurged.value();
    t.sourceKills += s.sourceKills.value();
    // Every killed attempt is retried unless its source gave up.
    t.retransmits += s.sourceKills.value() + s.abortedByBkill.value() -
                     s.messagesFailed.value();
    t.flitsInjected += s.flitsInjected.value();
    t.padFlitsInjected += s.padFlitsInjected.value();
    // Fixed-length workloads: every delivery carries messageLength
    // payload flits.
    t.payloadFlitsDelivered +=
        s.messagesDelivered.value() * cfg.messageLength;
    t.receiverTimeouts += s.receiverTimeouts.value();
    t.assembliesDiscarded += s.assembliesDiscarded.value();
    t.sourceQueueDrops += s.sourceQueueDrops.value();
    t.faultEvents += s.faultEventsApplied.value();
    t.flitsLost += s.flitsLostOnDeadLinks.value();
}

/** Simulated node-cycles between two laps of an untraced op. */
constexpr Cycle kLapNodeCycles = 1024;
/** Host time of laps between two runs of the reference computation. */
constexpr double kReferenceEveryS = 0.002;

std::atomic<std::uint64_t> referenceSink{0};

/**
 * Host time of a fixed computation: dependent reads over a 16 KiB
 * table (cache-resident, so it measures the core, not what the
 * simulator left in the cache) mixed with branchy integer work. Its
 * fastest time in a pass is the yardstick for how fast the host ran
 * during that pass; it does not depend on the code under test.
 */
double
referenceSeconds()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(4096);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return t;
    }();
    const auto t0 = Clock::now();
    std::uint32_t j = 1;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (std::uint32_t k = 0; k < 20000; ++k) {
        j = table[(j * 1103515245u + 12345u) & (table.size() - 1)] ^ k;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x & 1) ? j : x >> 3;
    }
    referenceSink.fetch_add(acc, std::memory_order_relaxed);
    return since(t0);
}

/**
 * Host time of an untraced op stretch by stretch: construction, then
 * every kLapNodeCycles node-cycles of simulation. Passes over identical
 * inputs give identical stretches, so each stretch has a minimum over
 * the passes. After every kReferenceEveryS of laps the reference
 * computation runs between two laps. Records nothing when the run is
 * traced.
 */
class Laps
{
  public:
    Laps(const Trace* tr, OpResult& r, Clock::time_point t0)
        : r_(tr == nullptr ? &r : nullptr), last_(t0), refAt_(t0)
    {
    }

    void lap()
    {
        if (r_ == nullptr)
            return;
        auto now = Clock::now();
        r_->laps.push_back(
            std::chrono::duration<double>(now - last_).count());
        if (std::chrono::duration<double>(now - refAt_).count() >=
            kReferenceEveryS) {
            const double ref = referenceSeconds();
            if (r_->fastestRef == 0.0 || ref < r_->fastestRef)
                r_->fastestRef = ref;
            now = refAt_ = Clock::now();
        }
        last_ = now;
    }

    /** net.run(n), with a lap after every stretch. */
    void run(Network& net, Cycle n)
    {
        if (r_ == nullptr) {
            net.run(n);
            return;
        }
        const Cycle stretch = std::max<Cycle>(
            1, kLapNodeCycles / net.topology().numNodes());
        for (Cycle done = 0; done < n;) {
            const Cycle step = std::min(stretch, n - done);
            net.run(step);
            done += step;
            lap();
        }
    }

  private:
    OpResult* r_;
    Clock::time_point last_;
    Clock::time_point refAt_;
};

/** Record the serialized state size of the first traced op. */
void
maybeSnapshot(Trace* tr, const Network& net)
{
    if (tr == nullptr || !tr->wantSnapshot)
        return;
    tr->wantSnapshot = false;
    const int id = tr->log.begin("snapshot", tr->opSpan);
    const Snapshot snap = captureSnapshot(net);
    tr->log.end(id);
    tr->totals.stateBytes = snap.payload.size();
    tr->totals.stateNodes = net.topology().numNodes();
}

/**
 * runExperiment's call sequence, driven through Network's public API
 * so the traced run can bracket each phase.
 */
OpResult
drivePoint(const SimConfig& cfg, Trace* tr)
{
    const auto t0 = Clock::now();
    OpResult r;
    Laps laps(tr, r, t0);
    TickProfiler prof;
    Phase setup(tr, prof, "setup");
    Network net(cfg);
    if (tr != nullptr)
        net.attachProfiler(&prof);
    setup.end();
    laps.lap();

    Phase warm(tr, prof, "warmup", &LayerTotals::warmupS);
    net.setMeasuring(false);
    laps.run(net, cfg.warmupCycles);
    warm.end();

    Phase measure(tr, prof, "measure", &LayerTotals::measureS);
    net.setMeasuring(true);
    laps.run(net, cfg.measureCycles);
    net.setMeasuring(false);
    measure.end();

    Phase drain(tr, prof, "drain", &LayerTotals::drainS);
    constexpr Cycle kDrainQuantum = 256;  // As in runExperiment.
    bool drained = net.measuredDrained();
    Cycle spent = 0;
    while (!drained && spent < cfg.drainCycles && !net.deadlocked()) {
        const Cycle step =
            std::min(kDrainQuantum, cfg.drainCycles - spent);
        laps.run(net, step);
        spent += step;
        drained = net.measuredDrained();
    }
    drain.end();

    r.run = summarize(net, drained, net.now());
    r.seconds = since(t0);
    addCounts(tr, net, cfg);
    maybeSnapshot(tr, net);
    return r;
}

/**
 * One runCampaign trial (runTrialOnce plus its drain-budget watchdog),
 * driven through Network's public API under a delivery ledger.
 */
OpResult
driveTrial(const Op& op, Trace* tr)
{
    const auto t0 = Clock::now();
    const SimConfig& cfg = op.cfg;
    OpResult r;
    r.isTrial = true;
    Laps laps(tr, r, t0);
    for (std::uint32_t attempt = 0;; ++attempt) {
        const Cycle cap = op.drainCap << attempt;
        TickProfiler prof;
        Phase setup(tr, prof, "setup");
        Network net(cfg);
        if (tr != nullptr)
            net.attachProfiler(&prof);
        DeliveryLedger ledger;
        net.attachLedger(&ledger);
        setup.end();
        laps.lap();

        Phase warm(tr, prof, "warmup", &LayerTotals::warmupS);
        net.setMeasuring(false);
        laps.run(net, cfg.warmupCycles);
        warm.end();

        Phase measure(tr, prof, "measure", &LayerTotals::measureS);
        net.setMeasuring(true);
        laps.run(net, cfg.measureCycles);
        net.setMeasuring(false);
        net.setTrafficEnabled(false);
        measure.end();

        Phase drain(tr, prof, "drain", &LayerTotals::drainS);
        Cycle drained = 0;
        while (!net.quiescent() && !net.deadlocked() && drained < cap) {
            const Cycle step = std::min<Cycle>(64, cap - drained);
            laps.run(net, step);
            drained += step;
        }
        drain.end();

        const bool exhausted = !net.quiescent() && !net.deadlocked();
        if (exhausted && attempt < op.trialRetries)
            continue;
        r.run = summarize(net, net.quiescent(), net.now());
        r.accepted = ledger.accepted();
        r.ledgerDelivered = ledger.delivered();
        r.quarantined = exhausted;
        r.accounted = ledger.fullyAccounted() && !net.deadlocked() &&
                      !exhausted;
        r.seconds = since(t0);
        addCounts(tr, net, cfg);
        maybeSnapshot(tr, net);
        return r;
    }
}

/** The giant torus: construction, a warmup, then the timed window. */
OpResult
driveGiant(const Op& op, Trace* tr)
{
    const auto t0 = Clock::now();
    OpResult r;
    Laps laps(tr, r, t0);
    TickProfiler prof;
    Phase setup(tr, prof, "setup");
    Network net(op.cfg);
    if (tr != nullptr)
        net.attachProfiler(&prof);
    setup.end();
    laps.lap();

    net.setMeasuring(true);
    Phase warm(tr, prof, "warmup", &LayerTotals::warmupS);
    laps.run(net, op.warmup);
    warm.end();

    Phase measure(tr, prof, "measure", &LayerTotals::measureS);
    laps.run(net, op.timed);
    measure.end();

    r.run = summarize(net, net.measuredDrained(), net.now());
    r.seconds = since(t0);
    addCounts(tr, net, op.cfg);
    maybeSnapshot(tr, net);
    return r;
}

/** Untraced: the library's own entry point where one covers the op. */
OpResult
runUntraced(const Op& op)
{
    switch (op.kind) {
      case OpKind::Point: {
        const auto t0 = Clock::now();
        OpResult r;
        r.run = runExperiment(op.cfg);
        r.seconds = since(t0);
        return r;
      }
      case OpKind::Trial:
        return driveTrial(op, nullptr);
      case OpKind::Giant:
        return driveGiant(op, nullptr);
    }
    return {};
}

/**
 * Untraced with laps: a point runs runExperiment's call sequence
 * (drivePoint), so its stretches can be timed one by one.
 */
OpResult
runLapped(const Op& op)
{
    return op.kind == OpKind::Point ? drivePoint(op.cfg, nullptr)
                                    : runUntraced(op);
}

OpResult
runTraced(const Op& op, Trace& tr)
{
    tr.opSpan = tr.log.begin("point " + op.label, tr.workloadSpan);
    OpResult r;
    switch (op.kind) {
      case OpKind::Point: r = drivePoint(op.cfg, &tr); break;
      case OpKind::Trial: r = driveTrial(op, &tr); break;
      case OpKind::Giant: r = driveGiant(op, &tr); break;
    }
    tr.log.end(tr.opSpan);
    return r;
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/** Protocol-invariant violations of one op ("" when it passed). */
std::string
opFailure(const OpResult& r)
{
    std::string why;
    auto add = [&](const char* what) {
        why += why.empty() ? what : std::string(", ") + what;
    };
    if (r.run.deadlocked)
        add("deadlock");
    if (r.run.orderViolations != 0)
        add("order violation");
    if (r.run.duplicateDeliveries != 0)
        add("duplicate delivery");
    if (r.run.corruptedDeliveries != 0)
        add("corrupted delivery");
    if (r.isTrial && r.quarantined)
        add("quarantined trial");
    else if (r.isTrial && !r.accounted)
        add("ledger not fully accounted");
    return why;
}

/** The exact counts the traced run must reproduce. */
bool
sameCounts(const OpResult& a, const OpResult& b)
{
    return a.run.flitEvents == b.run.flitEvents &&
           a.run.deliveredMeasured == b.run.deliveredMeasured &&
           a.run.totalKills == b.run.totalKills &&
           a.run.cyclesRun == b.run.cyclesRun &&
           a.accepted == b.accepted &&
           a.ledgerDelivered == b.ledgerDelivered;
}

/** FNV-1a over the exact simulated counts of a pass. */
std::uint64_t
simDigest(const std::vector<OpResult>& ops)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto put = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    auto putd = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        put(bits);
    };
    for (const OpResult& r : ops) {
        put(r.run.flitEvents);
        put(r.run.measuredMessages);
        put(r.run.deliveredMeasured);
        put(r.run.totalKills);
        put(r.run.cyclesRun);
        put(r.run.latencyOverflow);
        put(r.run.drained ? 1 : 0);
        putd(r.run.avgLatency);
        putd(r.run.acceptedThroughput);
        put(r.accepted);
        put(r.ledgerDelivered);
    }
    return h;
}

// ---------------------------------------------------------------------
// Standalone layer timings (traced run)
// ---------------------------------------------------------------------

/** Median over batches of the time per call of `body`, in ns. */
template <class Body>
double
nsPerCall(std::uint64_t calls, Body&& body)
{
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            body();
        batches.push_back(since(t0) * 1e9 / static_cast<double>(calls));
    }
    return median(batches);
}

/** The routing substrate a standalone component needs. */
struct Substrate
{
    explicit Substrate(const SimConfig& c)
        : cfg(c), topo(makeTopology(cfg)), faults(*topo, 0.0, Rng(1)),
          algo(*topo, faults, cfg.numVcs)
    {
    }

    SimConfig cfg;
    std::unique_ptr<Topology> topo;
    FaultModel faults;
    MinimalAdaptiveRouting algo;
};

/** Router::tick with two-flit worms arriving on every network port. */
double
routerTickBusyNs(const Substrate& sub)
{
    RouterStats stats;
    Router router(0, sub.cfg, sub.algo, &stats, Rng(2));
    const auto nodes = static_cast<NodeId>(sub.topo->numNodes());
    const PortId ports = router.networkPorts();
    std::vector<int> stage(ports, 0);
    std::vector<MsgId> worm(ports, kInvalidMsg);
    std::vector<NodeId> dst(ports, 1);
    MsgId msg = 0;
    NodeId next = 1;
    Cycle now = 0;
    return nsPerCall(20000, [&] {
        for (PortId p = 0; p < ports; ++p) {
            Flit f;
            f.src = 0;
            if (stage[p] == 0 && router.vcIdle(p, 0)) {
                worm[p] = ++msg;
                dst[p] = next;
                next = next % (nodes - 1) + 1;  // Never the router's own.
                f.type = FlitType::Head;
                f.seq = 0;
            } else if (stage[p] == 1) {
                f.type = FlitType::Tail;
                f.seq = 1;
            } else {
                if (stage[p] == 2 && router.vcIdle(p, 0))
                    stage[p] = 0;
                continue;
            }
            f.msg = worm[p];
            f.dst = dst[p];
            f.payloadLen = 1;
            router.acceptFlit(p, 0, f);
            ++stage[p];
        }
        router.tick(now++);
        // Downstream drains instantly: return every credit.
        for (const SentFlit& s : router.sentFlits)
            if (s.outPort < ports)
                router.acceptCredit(s.outPort, s.vc);
    });
}

double
routerTickIdleNs(const Substrate& sub)
{
    RouterStats stats;
    Router router(0, sub.cfg, sub.algo, &stats, Rng(2));
    Cycle now = 0;
    return nsPerCall(200000, [&] { router.tick(now++); });
}

double
candidatesNs(const Substrate& sub)
{
    const auto nodes = static_cast<NodeId>(sub.topo->numNodes());
    std::vector<Candidate> out;
    Rng rng(3);
    Flit head;
    head.type = FlitType::Head;
    NodeId node = 0, dst = 1;
    std::uint64_t found = 0;
    const double ns = nsPerCall(200000, [&] {
        head.dst = dst;
        out.clear();
        sub.algo.candidates(node, head, out, rng);
        found += out.size();
        node = (node + 1) % nodes;
        dst = (dst + 7) % nodes;
        if (dst == node)
            dst = (dst + 1) % nodes;
    });
    return found > 0 ? ns : 0.0;
}

/** Injector::tick with a full source queue and an instant channel. */
double
injectorTickNs(const Substrate& sub)
{
    NetworkStats stats;
    Injector inj(0, sub.cfg, *sub.topo, sub.algo, &stats, Rng(4));
    const auto nodes = static_cast<NodeId>(sub.topo->numNodes());
    std::vector<std::uint32_t> pairSeq(nodes, 0);
    MsgId id = 0;
    NodeId dst = 1;
    Cycle now = 0;
    return nsPerCall(50000, [&] {
        while (inj.queueLength() < 4) {
            PendingMessage m;
            m.id = ++id;
            m.src = 0;
            m.dst = dst;
            m.payloadLen = sub.cfg.messageLength;
            m.createdAt = now;
            m.pairSeq = pairSeq[dst]++;
            inj.enqueue(m);
            dst = dst % (nodes - 1) + 1;
        }
        inj.tick(now++);
        for (const InjectedFlit& f : inj.sent)
            inj.acceptCredit(f.injChannel, f.vc);
    });
}

class CountingSink : public DeliverySink
{
  public:
    void onDelivered(const DeliveredMessage&) override { ++delivered; }
    std::uint64_t delivered = 0;
};

/** Receiver::tick with a worm streaming into every ejection VC. */
double
receiverTickNs(const Substrate& sub)
{
    NetworkStats stats;
    CountingSink sink;
    Receiver rcv(0, sub.cfg, &stats, &sink);
    const std::uint32_t vcs = sub.cfg.numVcs;
    const std::uint32_t payload = sub.cfg.messageLength;
    const std::uint32_t wire = payload + 4;  // Three pads and a tail.
    const auto nodes = static_cast<NodeId>(sub.topo->numNodes());
    struct Feed
    {
        MsgId msg = 0;
        std::uint32_t seq = 0;
        NodeId src = 0;
    };
    std::vector<Feed> feed(vcs);
    std::vector<std::uint32_t> pairSeq(nodes, 0);
    MsgId id = 0;
    // VC v carries sources v+1, v+1+vcs, ..., so per-source order holds.
    auto startWorm = [&](std::uint32_t v) {
        Feed& f = feed[v];
        f.msg = ++id;
        f.seq = 0;
        f.src = f.src == 0 ? 1 + v : f.src + vcs;
        if (f.src >= nodes)
            f.src = 1 + v;
    };
    for (std::uint32_t v = 0; v < vcs; ++v)
        startWorm(v);
    Cycle now = 0;
    const double ns = nsPerCall(50000, [&] {
        for (std::uint32_t v = 0; v < vcs; ++v) {
            if (rcv.occupancy(0, v) >= sub.cfg.bufferDepth)
                continue;
            Feed& fd = feed[v];
            Flit f;
            f.type = fd.seq == 0              ? FlitType::Head
                     : fd.seq + 1 == wire     ? FlitType::Tail
                     : fd.seq >= payload      ? FlitType::Pad
                                              : FlitType::Body;
            f.msg = fd.msg;
            f.seq = fd.seq;
            f.src = fd.src;
            f.dst = 0;
            f.payloadLen = payload;
            f.pairSeq = pairSeq[fd.src];
            f.payload = (static_cast<std::uint64_t>(fd.msg) << 20) ^ fd.seq;
            f.stampCrc();
            rcv.acceptFlit(0, v, f);
            if (++fd.seq == wire) {
                ++pairSeq[fd.src];
                startWorm(v);
            }
        }
        rcv.tick(now++);
    });
    return sink.delivered > 0 ? ns : 0.0;
}

/** One cycle of arrival draws over every node, per node. */
double
scanNsPerNode(const Substrate& sub)
{
    TrafficGenerator gen(sub.cfg, *sub.topo, Rng(5));
    const auto nodes = static_cast<NodeId>(sub.topo->numNodes());
    const std::uint64_t cycles =
        std::max<std::uint64_t>(1, 4000000 / nodes);
    const double perCycle = nsPerCall(cycles, [&] {
        NodeId v = gen.scanArrivals(0);
        while (v < nodes)
            v = gen.scanArrivals(v + 1);
    });
    return perCycle / static_cast<double>(nodes);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB.
}

bool
auditCompiledIn()
{
    return CRNET_AUDIT_ENABLED != 0;  // Defined by src/sim/audit.hh.
}

/** Provenance line: what produced these numbers. */
void
printProvenance(const Workload& w, std::uint64_t seed, bool profiled)
{
    const SimConfig& cfg = w.ops.front().cfg;
    std::printf("provenance: compiler=\"%s\" build_type=%s "
                "crnet_audit=%s nproc=%u jobs=%u shards=%u profile=%d "
                "seed=%" PRIu64 "\n",
                __VERSION__, CRNET_BENCH_BUILD_TYPE,
                auditCompiledIn() ? "ON" : "OFF", hardwareJobs(),
                resolveJobs(cfg.jobs), resolveShards(cfg.shards),
                profiled ? 1 : 0, seed);
}

/** Per-op simulated results; percentiles only from unsaturated bins. */
void
printOps(const Workload& w, const std::vector<OpResult>& ops)
{
    std::printf("%-24s %8s %9s %9s %8s %s\n", "op", "drained",
                "avg_lat", "kills/msg", "overflow", "p50 p95/p99");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const RunResult& r = ops[i].run;
        std::string pct = "n/a (histogram saturated)";
        if (r.latencyOverflow == 0) {
            pct = fmt("%.0f", r.p50Latency) + " " +
                  fmt("%.0f", r.p95Latency) + "/" +
                  fmt("%.0f", r.p99Latency);
        }
        std::printf("%-24s %8s %9.1f %9.3f %8" PRIu64 " %s\n",
                    w.ops[i].label.c_str(), r.drained ? "yes" : "no",
                    r.avgLatency, r.killsPerMessage, r.latencyOverflow,
                    pct.c_str());
    }
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Sim-time end-to-end metrics of one pass (exact per seed). */
void
simMetrics(const std::vector<OpResult>& ops, std::vector<Metric>& out)
{
    double latSum = 0.0, thrSum = 0.0;
    std::uint64_t delivered = 0, kills = 0, accepted = 0, ledger = 0;
    bool anyTrial = false;
    for (const OpResult& r : ops) {
        latSum += r.run.avgLatency *
                  static_cast<double>(r.run.deliveredMeasured);
        delivered += r.run.deliveredMeasured;
        kills += r.run.totalKills;
        thrSum += r.run.acceptedThroughput;
        accepted += r.accepted;
        ledger += r.ledgerDelivered;
        anyTrial = anyTrial || r.isTrial;
    }
    const double d = delivered > 0 ? static_cast<double>(delivered) : 1.0;
    out.push_back({"sim_avg_latency_cycles", latSum / d, "cycles"});
    out.push_back({"sim_accepted_throughput",
                   thrSum / static_cast<double>(ops.size()),
                   "flits/node/cycle"});
    out.push_back(
        {"sim_kills_per_msg", static_cast<double>(kills) / d, "1"});
    const double rate =
        anyTrial && accepted > 0
            ? static_cast<double>(ledger) / static_cast<double>(accepted)
            : 1.0;
    out.push_back({"sim_delivery_rate", rate, "1"});
}

/**
 * Add repetitions of constructing every op's Network (destruction
 * excluded) to `reps` for about `budget` seconds, at least one.
 */
void
measureSetup(const Workload& w, double budget, std::vector<double>& reps)
{
    const auto t0 = Clock::now();
    do {
        double sum = 0.0;
        for (const Op& op : w.ops) {
            const auto a = Clock::now();
            Network net(op.cfg);
            sum += since(a);
        }
        reps.push_back(sum);
    } while (since(t0) < budget);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
};

bool
parseArgs(int argc, char** argv, Options& o)
{
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
            haveSeed = end != val && *end == '\0';
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0')
                return false;
        } else if (key == "--trace") {
            o.trace = std::atoi(val);
        } else if (key == "--trace-out") {
            o.traceOut = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveSeed && !o.workload.empty() &&
           o.seconds > 0.0 && (o.trace == 0 || o.trace == 1);
}

void
writeTrace(const std::string& path, const Workload& w,
           const Options& o, const Trace& tr,
           const std::vector<OpResult>& ops)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "crnet-bench: cannot write %s\n",
                     path.c_str());
        return;
    }
    f << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
      << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
      << CRNET_BENCH_BUILD_TYPE << "\", \"crnet_audit\": "
      << (auditCompiledIn() ? "true" : "false")
      << ", \"nproc\": " << hardwareJobs() << ", \"profile\": 1"
      << ",\n \"ops\": [";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const RunResult& r = ops[i].run;
        f << (i ? ",\n  " : "\n  ") << "{\"op\": \"" << w.ops[i].label
          << "\", \"seed\": " << w.ops[i].cfg.seed
          << ", \"cycles\": " << r.cyclesRun
          << ", \"flit_events\": " << r.flitEvents
          << ", \"delivered\": " << r.deliveredMeasured
          << ", \"kills\": " << r.totalKills
          << ", \"drained\": " << (r.drained ? "true" : "false")
          << ", \"latency_overflow\": " << r.latencyOverflow;
        if (r.latencyOverflow == 0)
            f << ", \"p50\": " << r.p50Latency << ", \"p95\": "
              << r.p95Latency << ", \"p99\": " << r.p99Latency;
        f << "}";
    }
    f << "],\n \"spans\": [";
    const std::vector<Span>& spans = tr.log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        f << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
          << ", \"estimated\": " << (s.estimated ? "true" : "false")
          << "}";
    }
    f << "]}\n";
}

int
runEndToEnd(const Workload& w, const Options& o)
{
    if (auditCompiledIn()) {
        std::fprintf(stderr, "crnet-bench: the invariant audit is compiled "
                             "in; end-to-end numbers are withheld\n");
        return 2;
    }
    printProvenance(w, o.seed, false);

    // Untraced passes over identical inputs while another pass still
    // fits in the time. Each stretch of an op (see Laps) counts with its
    // minimum over the passes: other tenants of a shared host only ever
    // add time, and they come and go within a pass, so the more passes,
    // the closer the minima get to the program's own time. The host's
    // speed also drifts for longer than a run lasts; wall_ref divides
    // each stretch by the pass's fastest reference time (see
    // referenceSeconds) before taking the minimum, which cancels that
    // drift; the report also prints the plain-seconds sum. Before every
    // pass and after the last, every op's Network is constructed for
    // about a twentieth of the previous pass's time, at least once;
    // setup_s is the median of those repetitions.
    constexpr double kSetupShare = 0.05;
    std::vector<double> setupReps;
    std::vector<OpResult> first;
    std::vector<std::vector<double>> best(w.ops.size());
    std::vector<std::vector<double>> bestRef(w.ops.size());
    std::vector<double> passS, passRef;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t digest = 0;
    const auto t0 = Clock::now();
    while (passS.empty() ||
           since(t0) * static_cast<double>(passS.size() + 1) /
                   static_cast<double>(passS.size()) <=
               o.seconds) {
        measureSetup(w, passS.empty() ? 0.0 : kSetupShare * passS.back(),
                     setupReps);
        std::vector<OpResult> pass;
        double passSum = 0.0;
        for (const Op& op : w.ops) {
            pass.push_back(runLapped(op));
            passSum += pass.back().seconds;
            ++attempted;
            const std::string why = opFailure(pass.back());
            if (!why.empty()) {
                ++failed;
                std::printf("FAILED %s: %s\n", op.label.c_str(),
                            why.c_str());
            }
        }
        double ref = 0.0;
        for (const OpResult& r : pass)
            if (r.fastestRef > 0.0 && (ref == 0.0 || r.fastestRef < ref))
                ref = r.fastestRef;
        if (ref == 0.0) {
            ++failed;
            std::printf("FAILED pass %zu: too short to time the reference "
                        "computation\n",
                        passS.size());
            ref = 1.0;
        }
        const std::uint64_t d = simDigest(pass);
        if (first.empty()) {
            digest = d;
            for (std::size_t i = 0; i < w.ops.size(); ++i) {
                best[i] = pass[i].laps;
                bestRef[i] = pass[i].laps;
                for (double& s : bestRef[i])
                    s /= ref;
            }
            first = std::move(pass);
        } else {
            if (d != digest) {
                ++failed;
                std::printf("FAILED pass %zu: sim_digest %016" PRIx64
                            " differs from the first pass\n",
                            passS.size(), d);
            }
            for (std::size_t i = 0; i < w.ops.size(); ++i) {
                const std::vector<double>& laps = pass[i].laps;
                if (laps.size() != best[i].size()) {
                    ++failed;
                    std::printf("FAILED %s: %zu stretches in pass %zu, "
                                "%zu in the first\n",
                                w.ops[i].label.c_str(), laps.size(),
                                passS.size(), best[i].size());
                    continue;
                }
                for (std::size_t j = 0; j < laps.size(); ++j) {
                    best[i][j] = std::min(best[i][j], laps[j]);
                    bestRef[i][j] = std::min(bestRef[i][j], laps[j] / ref);
                }
            }
        }
        passS.push_back(passSum);
        passRef.push_back(ref);
    }
    measureSetup(w, kSetupShare * passS.back(), setupReps);

    double wall = 0.0, wallRef = 0.0;
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        for (double s : best[i])
            wall += s;
        for (double s : bestRef[i])
            wallRef += s;
        events += first[i].run.flitEvents;
    }
    printOps(w, first);
    std::printf("passes=%zu ops=%" PRIu64 " failed_ops=%" PRIu64
                " sim_digest=%016" PRIx64 " setup_reps=%zu pass_s=",
                passS.size(), attempted, failed, digest, setupReps.size());
    for (std::size_t p = 0; p < passS.size(); ++p)
        std::printf("%s%.3f", p ? "," : "", passS[p]);
    std::printf("\n");
    std::printf("wall_s=%.6f flit_events_per_s=%.6g reference_s: "
                "fastest=%.3g median=%.3g (over passes)\n",
                wall, static_cast<double>(events) / wall,
                *std::min_element(passRef.begin(), passRef.end()),
                median(passRef));
    const double setup_s = median(setupReps);

    std::vector<Metric> m;
    m.push_back({"wall_ref", wallRef, "ref"});
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    m.push_back({"flit_events_per_ref",
                 static_cast<double>(events) / wallRef, "1/ref"});
    simMetrics(first, m);
    printResult(failed == 0, attempted, failed, m);
    return failed == 0 ? 0 : 1;
}

int
runPerLayer(const Workload& w, const Options& o)
{
    printProvenance(w, o.seed, true);
    std::uint64_t attempted = 0, failed = 0;
    auto check = [&](const Op& op, const OpResult& r) {
        ++attempted;
        const std::string why = opFailure(r);
        if (!why.empty()) {
            ++failed;
            std::printf("FAILED %s: %s\n", op.label.c_str(), why.c_str());
        }
    };

    // Untraced reference pass (profile=0, no spans).
    std::vector<OpResult> base;
    double baseWall = 0.0;
    for (const Op& op : w.ops) {
        base.push_back(runUntraced(op));
        baseWall += base.back().seconds;
        check(op, base.back());
    }

    // Traced pass: the same ops with the profiler attached and spans
    // around every phase. Its exact counts must equal the untraced
    // pass's, which keeps tracing provably off the results path.
    Telemetry& reg = Telemetry::instance();
    std::atomic<std::uint64_t>* barrier =
        reg.counter("sched.shard_barrier_wait_nanos");
    const std::uint64_t barrierBefore = barrier->load();
    Trace tr;
    tr.workloadSpan = tr.log.begin("workload " + w.name, -1);
    std::vector<OpResult> traced;
    double tracedWall = 0.0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        traced.push_back(runTraced(w.ops[i], tr));
        tracedWall += traced.back().seconds;
        check(w.ops[i], traced.back());
        if (!sameCounts(base[i], traced.back())) {
            ++failed;
            std::printf("FAILED %s: traced counts differ from the "
                        "untraced run\n",
                        w.ops[i].label.c_str());
        }
    }
    const double barrierS =
        static_cast<double>(barrier->load() - barrierBefore) * 1e-9;

    // Campaign trials through the library entry point, one per call.
    // On the other workloads an op stands in for a trial: its untraced
    // span (runExperiment for a point, the whole giant run).
    std::vector<double> trialS;
    std::vector<double> recovery;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const Op& op = w.ops[i];
        if (op.kind != OpKind::Trial) {
            trialS.push_back(base[i].seconds);
            continue;
        }
        CampaignConfig cc;
        cc.base = op.cfg;
        cc.trials = 1;
        cc.seedBase = op.cfg.seed;
        cc.drainCap = op.drainCap;
        cc.trialRetries = op.trialRetries;
        std::vector<TrialOutcome> out;
        const int id = tr.log.begin("runCampaign " + op.label,
                                    tr.workloadSpan);
        runCampaign(cc, &out);
        trialS.push_back(tr.log.end(id));
        ++attempted;
        const TrialOutcome& t = out.front();
        recovery.push_back(static_cast<double>(t.recoveryCycles));
        const OpResult& d = base[i];
        if (t.flitEvents != d.run.flitEvents ||
            t.cyclesRun != d.run.cyclesRun || t.accepted != d.accepted ||
            t.delivered != d.ledgerDelivered ||
            t.fullyAccounted != d.accounted) {
            ++failed;
            std::printf("FAILED %s: runCampaign differs from the "
                        "driven trial\n",
                        op.label.c_str());
        }
    }
    tr.log.end(tr.workloadSpan);

    // Shard balance: cumulative component ticks per shard.
    double imbalance = 1.0;
    const unsigned shards = resolveShards(w.ops.front().cfg.shards);
    if (shards > 1) {
        std::vector<double> ticks;
        for (const MetricSample& s : reg.snapshot())
            if (s.name.rfind("sched.shard_ticks.", 0) == 0 &&
                std::stoul(s.name.substr(18)) < shards)
                ticks.push_back(static_cast<double>(s.value));
        double sum = 0.0, max = 0.0;
        for (double t : ticks) {
            sum += t;
            max = std::max(max, t);
        }
        if (sum > 0.0)
            imbalance = max / (sum / static_cast<double>(ticks.size()));
    }

    // Standalone layer timings on the workload's own geometry.
    const SimConfig& cfg0 = w.ops.front().cfg;
    const Substrate sub(cfg0);
    const std::uint64_t nodes = sub.topo->numNodes();
    const int micro = tr.log.begin("standalone", -1);
    const double busyNs = routerTickBusyNs(sub);
    const double idleNs = routerTickIdleNs(sub);
    const double candNs = candidatesNs(sub);
    const double injNs = injectorTickNs(sub);
    const double rcvNs = receiverTickNs(sub);
    const double scanNs = scanNsPerNode(sub);
    tr.log.end(micro);
    const double poolKb =
        static_cast<double>(Router::StatePool(cfg0, nodes).bytes()) /
        static_cast<double>(nodes) / 1024.0;

    printOps(w, base);
    std::printf("ops=%" PRIu64 " failed_ops=%" PRIu64
                " sim_digest=%016" PRIx64 " untraced_s=%.3f traced_s=%.3f\n",
                attempted, failed, simDigest(base), baseWall, tracedWall);

    const LayerTotals& t = tr.totals;
    auto tick = [&](TickPhase p) {
        return t.tickS[static_cast<std::size_t>(p)];
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::uint64_t overflow = 0;
    for (const OpResult& r : base)
        overflow += r.run.latencyOverflow;
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    double trialMax = 0.0;
    for (double s : trialS)
        trialMax = std::max(trialMax, s);
    double recoveryMean = 0.0;
    for (double c : recovery)
        recoveryMean += c / static_cast<double>(recovery.size());

    std::vector<Metric> m = {
        {"core.warmup_s", t.warmupS, "s"},
        {"core.measure_s", t.measureS, "s"},
        {"core.drain_s", t.drainS, "s"},
        {"core.deliver_s", tick(TickPhase::Deliver), "s"},
        {"core.cycles", u(t.cycles), "count"},
        {"core.ns_per_node_cycle", ratio(baseWall * 1e9, t.nodeCycles),
         "ns"},
        {"core.shard_barrier_wait_s", barrierS, "s"},
        {"core.shard_tick_imbalance", imbalance, "1"},
        {"router.tick_s", tick(TickPhase::Routers), "s"},
        {"router.tick_busy_ns", busyNs, "ns"},
        {"router.tick_idle_ns", idleNs, "ns"},
        {"router.flit_hops", u(t.flitHops), "count"},
        {"router.headers_routed", u(t.headersRouted), "count"},
        {"router.kill_hops", u(t.killHops), "count"},
        {"router.flits_purged", u(t.flitsPurged), "count"},
        {"router.pool_kb_per_node", poolKb, "kB"},
        {"routing.candidates_ns", candNs, "ns"},
        {"nic.injector_s", tick(TickPhase::Injectors), "s"},
        {"nic.receiver_s", tick(TickPhase::Receivers), "s"},
        {"nic.injector_tick_ns", injNs, "ns"},
        {"nic.receiver_tick_ns", rcvNs, "ns"},
        {"nic.source_kills", u(t.sourceKills), "count"},
        {"nic.retransmits", u(t.retransmits), "count"},
        {"nic.pad_fraction", ratio(u(t.padFlitsInjected),
                                   u(t.flitsInjected)), "1"},
        {"nic.useful_flit_ratio", ratio(u(t.payloadFlitsDelivered),
                                        u(t.flitsInjected)), "1"},
        {"nic.receiver_timeouts", u(t.receiverTimeouts), "count"},
        {"nic.assemblies_discarded", u(t.assembliesDiscarded), "count"},
        {"traffic.generate_s", tick(TickPhase::Generate), "s"},
        {"traffic.scan_ns_per_node", scanNs, "ns"},
        {"traffic.source_queue_drops", u(t.sourceQueueDrops), "count"},
        {"fault.trial_s_p50", median(trialS), "s"},
        {"fault.trial_s_max", trialMax, "s"},
        {"fault.events_applied", u(t.faultEvents), "count"},
        {"fault.flits_lost", u(t.flitsLost), "count"},
        {"fault.recovery_cycles_mean", recoveryMean, "cycles"},
        {"sim.state_kb_per_node", ratio(u(t.stateBytes) / 1024.0,
                                        u(t.stateNodes)), "kB"},
        {"sim.profile_overhead", ratio(tracedWall, baseWall) - 1.0, "1"},
        {"sim.latency_overflow", u(overflow), "count"},
    };
    if (!o.traceOut.empty())
        writeTrace(o.traceOut, w, o, tr, base);
    printResult(failed == 0, attempted, failed, m);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: crnet_bench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
        return 2;
    }
    Workload w;
    if (!makeWorkload(o.workload, o.seed, w)) {
        std::fprintf(stderr, "crnet-bench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    std::printf("crnet-bench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d\n",
                w.name.c_str(), o.seed, o.seconds, o.trace);
    return o.trace ? runPerLayer(w, o) : runEndToEnd(w, o);
}
