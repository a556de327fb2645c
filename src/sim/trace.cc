#include "src/sim/trace.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "src/sim/log.hh"

namespace crnet {

namespace {

/** Signed view of sentinel-bearing ids for readable JSON output. */
std::int64_t
jsonId(std::uint64_t v, std::uint64_t invalid)
{
    return v == invalid ? -1 : static_cast<std::int64_t>(v);
}

std::uint64_t
parseWatchU64(const std::string& tok)
{
    char* end = nullptr;
    const auto v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0')
        fatal("watch spec: expected integer, got '", tok, "'");
    return v;
}

} // namespace

const char*
toString(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::Inject: return "inject";
      case TraceEventKind::Commit: return "commit";
      case TraceEventKind::HeadAdvance: return "head_advance";
      case TraceEventKind::Block: return "block";
      case TraceEventKind::SourceKill: return "source_kill";
      case TraceEventKind::RouterKill: return "router_kill";
      case TraceEventKind::KillHop: return "kill_hop";
      case TraceEventKind::BkillHop: return "bkill_hop";
      case TraceEventKind::Abort: return "abort";
      case TraceEventKind::Retransmit: return "retransmit";
      case TraceEventKind::GiveUp: return "give_up";
      case TraceEventKind::Deliver: return "deliver";
      case TraceEventKind::Discard: return "discard";
      case TraceEventKind::Fault: return "fault";
      case TraceEventKind::LinkLoss: return "link_loss";
    }
    panic("bad TraceEventKind");
}

Tracer::Tracer(std::string prefix, const std::string& watch_spec)
    : prefix_(std::move(prefix)), enabled_(!prefix_.empty())
{
    if (!enabled_)
        return;
    // Parse the watch list: `<msgid>` or `<src>-<dst>` tokens.
    std::size_t pos = 0;
    while (pos < watch_spec.size()) {
        std::size_t comma = watch_spec.find(',', pos);
        if (comma == std::string::npos)
            comma = watch_spec.size();
        const std::string tok = watch_spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        const std::size_t dash = tok.find('-');
        if (dash == std::string::npos) {
            watchedMsgs_.insert(parseWatchU64(tok));
        } else {
            const auto src = static_cast<NodeId>(
                parseWatchU64(tok.substr(0, dash)));
            const auto dst = static_cast<NodeId>(
                parseWatchU64(tok.substr(dash + 1)));
            watchedPairs_.emplace_back(src, dst);
        }
    }
    watchAll_ = watchedMsgs_.empty() && watchedPairs_.empty();
}

Tracer::~Tracer()
{
    flush();
}

bool
Tracer::pairMatches(NodeId src, NodeId dst) const
{
    for (const auto& p : watchedPairs_)
        if (p.first == src && p.second == dst)
            return true;
    return false;
}

bool
Tracer::wants(MsgId msg, NodeId src, NodeId dst) const
{
    if (!enabled_)
        return false;
    if (watchAll_)
        return true;
    if (watchedMsgs_.count(msg) != 0)
        return true;
    return src != kInvalidNode && pairMatches(src, dst);
}

CRNET_ALLOW("global-state",
            "per-thread staging pointer for the sharded tick: set and "
            "cleared by the owning worker only, null everywhere else; "
            "staged events are replayed in deterministic order")
thread_local std::vector<TraceEvent>* Tracer::tlsStage_ = nullptr;

void
Tracer::setThreadStage(std::vector<TraceEvent>* stage)
{
    tlsStage_ = stage;
}

void
Tracer::record(TraceEventKind kind, MsgId msg, NodeId node,
               NodeId src, NodeId dst, std::uint16_t attempt,
               std::uint64_t arg)
{
    if (!enabled_)
        return;
    if (tlsStage_ != nullptr) {
        // Sharded tick: stage the raw tuple; the serial replay after
        // the barrier re-enters record() with no stage installed and
        // applies the watch filter (whose adoption mutates shared
        // state) in deterministic order.
        tlsStage_->push_back(
            TraceEvent{now_, kind, msg, node, src, dst, attempt, arg});
        return;
    }
    if (!watchAll_) {
        bool want = watchedMsgs_.count(msg) != 0;
        if (!want && src != kInvalidNode && pairMatches(src, dst)) {
            want = true;
            // Adopt the message so kill tokens and other src-less
            // events of this worm keep matching the pair filter.
            if (msg != kInvalidMsg)
                watchedMsgs_.insert(msg);
        }
        if (!want)
            return;
    }
    events_.push_back(
        TraceEvent{now_, kind, msg, node, src, dst, attempt, arg});
}

void
Tracer::writeJsonl() const
{
    std::ofstream os(jsonlPath());
    if (!os) {
        warn("trace: cannot open ", jsonlPath(), " for writing");
        return;
    }
    for (const TraceEvent& e : events_) {
        os << "{\"t\":" << e.at << ",\"ev\":\"" << toString(e.kind)
           << "\",\"msg\":" << jsonId(e.msg, kInvalidMsg)
           << ",\"node\":" << jsonId(e.node, kInvalidNode)
           << ",\"src\":" << jsonId(e.src, kInvalidNode)
           << ",\"dst\":" << jsonId(e.dst, kInvalidNode)
           << ",\"attempt\":" << e.attempt << ",\"arg\":" << e.arg
           << "}\n";
    }
}

void
Tracer::writeChrome() const
{
    std::ofstream os(chromePath());
    if (!os) {
        warn("trace: cannot open ", chromePath(), " for writing");
        return;
    }
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    // Instant events: pid 0, one tid per node, ts = cycle.
    for (const TraceEvent& e : events_) {
        sep();
        os << "{\"name\":\"" << toString(e.kind)
           << "\",\"cat\":\"worm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
           << e.at << ",\"pid\":0,\"tid\":"
           << jsonId(e.node, kInvalidNode) << ",\"args\":{\"msg\":"
           << jsonId(e.msg, kInvalidMsg) << ",\"src\":"
           << jsonId(e.src, kInvalidNode) << ",\"dst\":"
           << jsonId(e.dst, kInvalidNode) << ",\"attempt\":"
           << e.attempt << ",\"arg\":" << e.arg << "}}";
    }
    // One async span per message: first injection to final outcome.
    // Unfinished messages get no span (Perfetto tolerates that; the
    // instant events still show them).
    struct Span
    {
        Cycle begin = 0;
        Cycle end = 0;
        bool closed = false;
    };
    std::unordered_map<MsgId, Span> spans;
    for (const TraceEvent& e : events_) {
        if (e.msg == kInvalidMsg)
            continue;
        if (e.kind == TraceEventKind::Inject)
            spans.emplace(e.msg, Span{e.at, e.at, false});
        auto it = spans.find(e.msg);
        if (it == spans.end())
            continue;
        if (e.kind == TraceEventKind::Deliver ||
            e.kind == TraceEventKind::GiveUp) {
            it->second.end = e.at;
            it->second.closed = true;
        }
    }
    for (const TraceEvent& e : events_) {
        if (e.kind != TraceEventKind::Inject || e.msg == kInvalidMsg)
            continue;
        const auto it = spans.find(e.msg);
        if (it == spans.end() || !it->second.closed)
            continue;
        sep();
        os << "{\"name\":\"msg " << e.msg
           << "\",\"cat\":\"lifetime\",\"ph\":\"b\",\"id\":" << e.msg
           << ",\"ts\":" << it->second.begin
           << ",\"pid\":0,\"tid\":0}";
        sep();
        os << "{\"name\":\"msg " << e.msg
           << "\",\"cat\":\"lifetime\",\"ph\":\"e\",\"id\":" << e.msg
           << ",\"ts\":" << it->second.end << ",\"pid\":0,\"tid\":0}";
        spans.erase(it);  // One span even if the message re-injects.
    }
    os << "\n]}\n";
}

void
Tracer::flush()
{
    if (!enabled_ || flushed_)
        return;
    flushed_ = true;
    writeJsonl();
    writeChrome();
}

} // namespace crnet
