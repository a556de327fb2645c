/**
 * @file
 * Live telemetry: process-wide metrics registry, per-run self-profiler
 * and streaming status files.
 *
 * Everything here is *off the results path*. Results (RunResult,
 * campaign ledgers, traces, timeseries, snapshots) are pure functions
 * of the configuration and seed; telemetry observes the run without
 * touching it, so enabling it is byte-identical to disabling it under
 * both schedulers and jobs=N (tests/test_telemetry.cc holds the
 * goldens). Wall-clock reads go exclusively through the registered
 * shim (WallTimer::nanos, src/sim/walltime.hh), keeping the
 * `wallclock` rule of tools/crnet_analyze.py clean.
 *
 * Three pieces:
 *
 *   Telemetry        process-wide registry of named counters and
 *                    gauges. Registration (allocating, mutex) is done
 *                    once at attach time; updates are single atomic
 *                    ops, safe from CRNET_HOT_PATH code.
 *
 *   TickProfiler     per-run sampling profiler attributing wall time
 *                    to experiment phases (warmup/measure/drain) and
 *                    tick sub-phases (deliver, generate, injector /
 *                    router / receiver sweeps, audit, sampling).
 *                    Sub-phases are clock-stamped on one tick in
 *                    every `stride` (default 61) to keep enabled
 *                    overhead under the 2% budget; audit and sampling
 *                    are rare enough to be timed exactly. Results land
 *                    in ProfileData, the `profile` block of RunResult
 *                    / CampaignSummary and the `profile:` bench footer.
 *
 *   StatusWriter     throttled live status for long campaigns and
 *                    sweeps: atomically rewrites (atomicWriteFile) a
 *                    status.json every `status_interval` wall-seconds
 *                    with progress, EMA-based ETA, per-slot current
 *                    trial and cycle, aggregate delivery ratio, the
 *                    last few fault events and a dump of the metrics
 *                    registry. tools/crnet_top.py tails it.
 */

#ifndef CRNET_SIM_TELEMETRY_HH
#define CRNET_SIM_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/annotations.hh"
#include "src/sim/types.hh"
#include "src/sim/walltime.hh"

namespace crnet {

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

enum class MetricKind : std::uint8_t
{
    Counter,   //!< Monotonic sum (adds).
    Gauge,     //!< Last written value wins.
};

/** Printable kind name ("counter" / "gauge"). */
const char* toString(MetricKind kind);

/** One registry entry, resolved to a value at snapshot time. */
struct MetricSample
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;
};

/**
 * Process-wide registry of named metrics.
 *
 * counter()/gauge() register-or-look-up an entry and return a stable
 * pointer (entries live in a deque and are never destroyed before
 * process exit); callers cache the pointer at attach time and update
 * through it with plain atomic ops — no lock, no allocation — which
 * is what makes updates legal from hot-path code. Under the jobs=N
 * engine the registry is shared by all workers: counters aggregate
 * across runs, gauges reflect the most recent writer. Nothing
 * result-affecting ever reads it.
 */
class Telemetry
{
  public:
    /** The process-wide instance (registered global-state singleton). */
    static Telemetry& instance();

    /** Register or look up a counter. Allocates; not for hot paths. */
    std::atomic<std::uint64_t>* counter(const std::string& name);
    /** Register or look up a gauge. Allocates; not for hot paths. */
    std::atomic<std::uint64_t>* gauge(const std::string& name);

    /** Consistent dump of every metric, sorted by name. */
    std::vector<MetricSample> snapshot() const;

    /** Zero every registered metric (tests). */
    void resetAll();

  private:
    Telemetry() = default;

    struct Entry
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        std::atomic<std::uint64_t> value{0};
    };

    Entry* entry(const std::string& name, MetricKind kind);

    mutable std::mutex mutex_;
    /** Deque: stable element addresses across registration. */
    std::deque<Entry> entries_;
    /** Ordered (never unordered) name -> entry index. */
    std::map<std::string, std::size_t> index_;
};

// ---------------------------------------------------------------------
// Self-profiler
// ---------------------------------------------------------------------

/**
 * Tick sub-phases the profiler attributes time to. The first five are
 * stride-sampled (stamped on one tick in every `stride`); Audit and
 * Sample occur on few cycles and are timed exactly.
 */
enum class TickPhase : std::uint8_t
{
    Deliver,   //!< Wave-ring event delivery.
    Generate,  //!< Traffic-generator arrival pass.
    Injectors, //!< Injector NIC sweep.
    Routers,   //!< Router sweep.
    Receivers, //!< Receiver NIC sweep.
    Audit,     //!< Invariant audit sweeps (exact).
    Sample,    //!< Timeseries sampling (exact).
};
constexpr std::size_t kNumTickPhases = 7;

/** Footer-stable phase name ("deliver", "routers", ...). */
const char* toString(TickPhase phase);

/** True for phases timed on sampled ticks only (extrapolated). */
constexpr bool tickPhaseSampled(TickPhase phase)
{
    return phase != TickPhase::Audit && phase != TickPhase::Sample;
}

/** Default sampling stride. Prime, so it cannot alias the audit or
 * timeseries intervals (powers of two / round numbers). */
constexpr std::uint32_t kDefaultProfileStride = 61;

/**
 * Accumulated profile of one run (or a merge of many). Attached to
 * RunResult / CampaignSummary when SimConfig::profileEnabled is set;
 * excluded (like wallSeconds) from all byte-identity comparisons.
 */
struct ProfileData
{
    bool enabled = false;

    // Experiment phases, exact wall seconds.
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    double drainSeconds = 0.0;

    std::uint64_t ticks = 0;        //!< Ticks executed.
    std::uint64_t sampledTicks = 0; //!< Ticks that were clock-stamped.
    std::uint32_t stride = kDefaultProfileStride;

    /** Per-phase nanoseconds, indexed by TickPhase. Sampled phases
     * hold only the stamped ticks' time (see tickSeconds). */
    std::uint64_t phaseNanos[kNumTickPhases] = {};

    /**
     * Estimated wall seconds spent in one tick sub-phase: sampled
     * phases are extrapolated by ticks/sampledTicks, exact phases
     * convert directly. After merge() the extrapolation uses the
     * pooled ratio, which is exact when every contributor shared one
     * stride (the default) and a close estimate otherwise.
     */
    double tickSeconds(TickPhase phase) const;

    /** Sum of every contributor (merging runs / trials). */
    void merge(const ProfileData& other);
};

/**
 * Per-run sampling profiler. One instance per Network (attached via
 * Network::attachProfiler); never shared across threads. Everything
 * callable from Network::tick is allocation-free.
 */
class TickProfiler
{
  public:
    explicit TickProfiler(std::uint32_t stride = kDefaultProfileStride)
        : stride_(stride == 0 ? 1 : stride),
          untilSample_(stride == 0 ? 1 : stride)
    {
        data_.enabled = true;
        data_.stride = stride_;
    }

    /**
     * Monotonic nanosecond stamp. Registered wallclock consumer: the
     * telemetry sampler reads time only through the walltime.hh shim.
     */
    CRNET_ALLOW("wallclock", "the telemetry self-profiler samples the "
                "clock through the WallTimer shim; its output feeds "
                "profile footers and status files, never results")
    static std::uint64_t stamp() { return WallTimer::nanos(); }

    /**
     * Count one tick; true when this tick should be clock-stamped
     * (one in every stride).
     */
    bool armTick()
    {
        ++data_.ticks;
        if (--untilSample_ == 0) {
            untilSample_ = stride_;
            ++data_.sampledTicks;
            return true;
        }
        return false;
    }

    /** Attribute `nanos` to a phase. */
    void add(TickPhase phase, std::uint64_t nanos)
    {
        data_.phaseNanos[static_cast<std::size_t>(phase)] += nanos;
    }

    ProfileData& data() { return data_; }
    const ProfileData& data() const { return data_; }

  private:
    ProfileData data_;
    std::uint32_t stride_;
    std::uint32_t untilSample_;
};

// ---------------------------------------------------------------------
// Streaming status
// ---------------------------------------------------------------------

/** status.json schema identifier (docs/OBSERVABILITY.md documents the
 * full schema; tests/test_status_schema.py validates it). */
inline constexpr const char* kStatusSchema = "crnet-status-v1";

/**
 * Throttled, atomically-rewritten status file for live campaigns and
 * sweeps. Thread-safe: runCampaign/runMany workers report through one
 * shared writer. Every write goes through atomicWriteFile, so a
 * reader (tools/crnet_top.py) or a SIGKILL mid-rewrite can never see
 * a torn file. Wall time is reported as seconds since the writer was
 * constructed — absolute host time never appears.
 */
class StatusWriter
{
  public:
    /** Units completed/fault events retained in the "recent" rings. */
    static constexpr std::size_t kRecent = 16;

    /**
     * @param path            status.json destination.
     * @param every_seconds   min wall-seconds between rewrites
     *                        (0 = write on every update; tests).
     * @param kind            "campaign" or "sweep".
     * @param total           units (trials / runs) in the batch.
     * @param jobs            resolved worker count.
     */
    StatusWriter(std::string path, double every_seconds,
                 std::string kind, std::uint64_t total, unsigned jobs);

    /** One completed unit (for the aggregates and recent-trials ring). */
    struct UnitRow
    {
        std::uint64_t index = 0;
        std::uint64_t seed = 0;
        bool ok = false;
        bool deadlocked = false;
        bool quarantined = false;
        std::uint64_t accepted = 0;
        std::uint64_t delivered = 0;
        Cycle cycles = 0;
    };
    /** One fault event (for the recent-fault-events ring). */
    struct FaultRow
    {
        std::uint64_t unit = 0;
        Cycle at = 0;
        std::string kind;
    };

    /** Units restored from a journal before this process ran them. */
    void noteResumed(std::uint64_t resumed);

    /**
     * A worker entered `phase` ("warmup"/"measure"/"drain"/"run") of
     * unit `index` at simulated cycle `cycle`. Cheap: map update plus
     * a throttled rewrite.
     */
    void unitPhase(std::uint64_t index, const char* phase, Cycle cycle);

    /** A unit finished; `faults` feeds the recent-fault-events ring. */
    void unitDone(const UnitRow& row, const std::vector<FaultRow>& faults);

    /** Final rewrite with state="done" (always writes). */
    void finish();

    const std::string& path() const { return path_; }

  private:
    struct Slot
    {
        std::string phase;
        Cycle cycle = 0;
    };

    /** Rewrite the file if forced, unthrottled, or the interval passed. */
    void maybeWriteLocked(bool force);
    std::string renderLocked(bool done) const;

    mutable std::mutex mutex_;
    std::string path_;
    double everySeconds_;
    std::string kind_;
    std::uint64_t total_;
    unsigned jobs_;
    WallTimer timer_;
    double lastWrite_ = -1.0;

    std::uint64_t done_ = 0;
    std::uint64_t resumed_ = 0;
    std::uint64_t quarantined_ = 0;
    std::uint64_t deadlocked_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t delivered_ = 0;

    /** EMA of inter-completion wall seconds (ETA = ema * remaining). */
    double emaInterval_ = 0.0;
    double lastDoneAt_ = 0.0;

    /** In-flight units: index -> current phase/cycle. */
    std::map<std::uint64_t, Slot> active_;
    std::deque<UnitRow> recentUnits_;
    std::deque<FaultRow> recentFaults_;
};

} // namespace crnet

#endif // CRNET_SIM_TELEMETRY_HH
