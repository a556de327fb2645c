/**
 * @file
 * Telemetry registry, profile arithmetic and the streaming status
 * writer. See src/sim/telemetry.hh for the design contract: nothing
 * here is on the results path, and every byte written to disk goes
 * through atomicWriteFile so readers never see a torn status file.
 */

#include "src/sim/telemetry.hh"

#include <cstdio>

#include "src/sim/snapshot.hh"

namespace crnet {

const char* toString(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    }
    return "unknown";
}

const char* toString(TickPhase phase)
{
    switch (phase) {
    case TickPhase::Deliver: return "deliver";
    case TickPhase::Generate: return "generate";
    case TickPhase::Injectors: return "injectors";
    case TickPhase::Routers: return "routers";
    case TickPhase::Receivers: return "receivers";
    case TickPhase::Audit: return "audit";
    case TickPhase::Sample: return "sample";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// Telemetry registry
// ---------------------------------------------------------------------

Telemetry& Telemetry::instance()
{
    CRNET_ALLOW("global-state", "the telemetry registry is the "
                "registered process-wide metrics singleton: updates "
                "are observability-only atomics and nothing "
                "result-affecting ever reads them")
    static Telemetry telemetry;
    return telemetry;
}

Telemetry::Entry* Telemetry::entry(const std::string& name,
                                   MetricKind kind)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(name);
    if (it != index_.end())
        return &entries_[it->second];
    entries_.emplace_back();
    Entry& e = entries_.back();
    e.name = name;
    e.kind = kind;
    index_.emplace(name, entries_.size() - 1);
    return &e;
}

std::atomic<std::uint64_t>* Telemetry::counter(const std::string& name)
{
    return &entry(name, MetricKind::Counter)->value;
}

std::atomic<std::uint64_t>* Telemetry::gauge(const std::string& name)
{
    return &entry(name, MetricKind::Gauge)->value;
}

std::vector<MetricSample> Telemetry::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSample> out;
    out.reserve(index_.size());
    for (const auto& [name, idx] : index_) {
        const Entry& e = entries_[idx];
        MetricSample s;
        s.name = name;
        s.kind = e.kind;
        s.value = e.value.load(std::memory_order_relaxed);
        out.push_back(std::move(s));
    }
    return out;
}

void Telemetry::resetAll()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& e : entries_)
        e.value.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// ProfileData
// ---------------------------------------------------------------------

double ProfileData::tickSeconds(TickPhase phase) const
{
    const double ns =
        static_cast<double>(phaseNanos[static_cast<std::size_t>(phase)]);
    double scale = 1.0;
    if (tickPhaseSampled(phase) && sampledTicks != 0)
        scale = static_cast<double>(ticks) /
                static_cast<double>(sampledTicks);
    return ns * scale * 1e-9;
}

void ProfileData::merge(const ProfileData& other)
{
    if (!other.enabled)
        return;
    enabled = true;
    warmupSeconds += other.warmupSeconds;
    measureSeconds += other.measureSeconds;
    drainSeconds += other.drainSeconds;
    ticks += other.ticks;
    sampledTicks += other.sampledTicks;
    stride = other.stride;
    for (std::size_t p = 0; p < kNumTickPhases; ++p)
        phaseNanos[p] += other.phaseNanos[p];
}

// ---------------------------------------------------------------------
// StatusWriter
// ---------------------------------------------------------------------

namespace {

/** Minimal JSON string escaper (names are internal identifiers, but
 * stay safe against quotes/backslashes/control bytes anyway). */
std::string jsonEscape(const std::string& in)
{
    std::string out;
    out.reserve(in.size() + 2);
    for (const char c : in) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

StatusWriter::StatusWriter(std::string path, double every_seconds,
                           std::string kind, std::uint64_t total,
                           unsigned jobs)
    : path_(std::move(path)),
      everySeconds_(every_seconds < 0.0 ? 0.0 : every_seconds),
      kind_(std::move(kind)), total_(total), jobs_(jobs)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    maybeWriteLocked(/*force=*/true); // Initial file: state=running.
}

void StatusWriter::noteResumed(std::uint64_t resumed)
{
    // Records the count only; the caller reports each replayed unit
    // through unitDone() so the aggregates include them too.
    const std::lock_guard<std::mutex> lock(mutex_);
    resumed_ = resumed;
    maybeWriteLocked(/*force=*/false);
}

void StatusWriter::unitPhase(std::uint64_t index, const char* phase,
                             Cycle cycle)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = active_[index];
    slot.phase = phase;
    slot.cycle = cycle;
    maybeWriteLocked(/*force=*/false);
}

void StatusWriter::unitDone(const UnitRow& row,
                            const std::vector<FaultRow>& faults)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    active_.erase(row.index);
    ++done_;
    if (row.quarantined)
        ++quarantined_;
    if (row.deadlocked)
        ++deadlocked_;
    accepted_ += row.accepted;
    delivered_ += row.delivered;

    recentUnits_.push_back(row);
    while (recentUnits_.size() > kRecent)
        recentUnits_.pop_front();
    for (const FaultRow& f : faults) {
        recentFaults_.push_back(f);
        while (recentFaults_.size() > kRecent)
            recentFaults_.pop_front();
    }

    // EMA of inter-completion spacing drives the ETA. The first
    // completion seeds it with the full elapsed time so early ETAs
    // amortize the warmup instead of reading as zero.
    const double now = timer_.seconds();
    const double dt = now - lastDoneAt_;
    lastDoneAt_ = now;
    constexpr double kAlpha = 0.3;
    emaInterval_ = emaInterval_ == 0.0
                       ? dt
                       : kAlpha * dt + (1.0 - kAlpha) * emaInterval_;
    maybeWriteLocked(/*force=*/false);
}

void StatusWriter::finish()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    active_.clear();
    const std::string json = renderLocked(/*done=*/true);
    const std::vector<std::uint8_t> bytes(json.begin(), json.end());
    (void)atomicWriteFile(path_, bytes);
    lastWrite_ = timer_.seconds();
}

void StatusWriter::maybeWriteLocked(bool force)
{
    const double now = timer_.seconds();
    if (!force && lastWrite_ >= 0.0 && everySeconds_ > 0.0 &&
        now - lastWrite_ < everySeconds_)
        return;
    const std::string json = renderLocked(/*done=*/false);
    const std::vector<std::uint8_t> bytes(json.begin(), json.end());
    // Status is best-effort observability: an unwritable path must
    // never take down the campaign it is watching.
    (void)atomicWriteFile(path_, bytes);
    lastWrite_ = now;
}

std::string StatusWriter::renderLocked(bool done) const
{
    const double wall = timer_.seconds();
    const std::uint64_t remaining = total_ > done_ ? total_ - done_ : 0;
    const double eta = done ? 0.0 : emaInterval_ * static_cast<double>(
                                        remaining);
    const double ratio =
        accepted_ != 0 ? static_cast<double>(delivered_) /
                             static_cast<double>(accepted_)
                       : 0.0;

    std::string j;
    j.reserve(2048);
    j += "{\n";
    j += "  \"schema\": \"";
    j += kStatusSchema;
    j += "\",\n";
    j += "  \"kind\": \"" + jsonEscape(kind_) + "\",\n";
    j += "  \"state\": \"";
    j += done ? "done" : "running";
    j += "\",\n";
    j += "  \"wall_seconds\": " + jsonDouble(wall) + ",\n";
    j += "  \"jobs\": " + std::to_string(jobs_) + ",\n";
    j += "  \"total\": " + std::to_string(total_) + ",\n";
    j += "  \"done\": " + std::to_string(done_) + ",\n";
    j += "  \"resumed\": " + std::to_string(resumed_) + ",\n";
    j += "  \"quarantined\": " + std::to_string(quarantined_) + ",\n";
    j += "  \"deadlocked\": " + std::to_string(deadlocked_) + ",\n";
    j += "  \"accepted\": " + std::to_string(accepted_) + ",\n";
    j += "  \"delivered\": " + std::to_string(delivered_) + ",\n";
    j += "  \"delivery_ratio\": " + jsonDouble(ratio) + ",\n";
    j += "  \"eta_seconds\": " + jsonDouble(eta) + ",\n";

    j += "  \"active\": [";
    bool first = true;
    for (const auto& [index, slot] : active_) {
        j += first ? "\n" : ",\n";
        first = false;
        j += "    {\"unit\": " + std::to_string(index) +
             ", \"phase\": \"" + jsonEscape(slot.phase) +
             "\", \"cycle\": " + std::to_string(slot.cycle) + "}";
    }
    j += first ? "],\n" : "\n  ],\n";

    j += "  \"recent_units\": [";
    first = true;
    for (const UnitRow& u : recentUnits_) {
        j += first ? "\n" : ",\n";
        first = false;
        j += "    {\"unit\": " + std::to_string(u.index) +
             ", \"seed\": " + std::to_string(u.seed) +
             ", \"ok\": " + (u.ok ? "true" : "false") +
             ", \"deadlocked\": " + (u.deadlocked ? "true" : "false") +
             ", \"quarantined\": " +
             (u.quarantined ? "true" : "false") +
             ", \"accepted\": " + std::to_string(u.accepted) +
             ", \"delivered\": " + std::to_string(u.delivered) +
             ", \"cycles\": " + std::to_string(u.cycles) + "}";
    }
    j += first ? "],\n" : "\n  ],\n";

    j += "  \"recent_fault_events\": [";
    first = true;
    for (const FaultRow& f : recentFaults_) {
        j += first ? "\n" : ",\n";
        first = false;
        j += "    {\"unit\": " + std::to_string(f.unit) +
             ", \"at\": " + std::to_string(f.at) + ", \"kind\": \"" +
             jsonEscape(f.kind) + "\"}";
    }
    j += first ? "],\n" : "\n  ],\n";

    j += "  \"metrics\": {";
    first = true;
    for (const MetricSample& m : Telemetry::instance().snapshot()) {
        j += first ? "\n" : ",\n";
        first = false;
        j += "    \"" + jsonEscape(m.name) + "\": " +
             std::to_string(m.value);
    }
    j += first ? "}\n" : "\n  }\n";
    j += "}\n";
    return j;
}

} // namespace crnet
