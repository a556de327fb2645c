#include "src/sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "src/sim/log.hh"

namespace crnet {

namespace {

std::uint64_t
parseU64(const std::string& key, const std::string& value)
{
    // Digits only: strtoull alone would accept a sign ("-1" wraps to
    // 2^64 - 1), leading blanks and out-of-range values.
    const bool digits =
        !value.empty() &&
        std::all_of(value.begin(), value.end(),
                    [](unsigned char c) { return std::isdigit(c); });
    errno = 0;
    const auto v = digits ? std::strtoull(value.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE)
        fatal("config key '", key, "': expected integer, got '", value,
              "'");
    return v;
}

double
parseF64(const std::string& key, const std::string& value)
{
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("config key '", key, "': expected number, got '", value,
              "'");
    return v;
}

} // namespace

std::uint64_t
SimConfig::numNodes() const
{
    std::uint64_t n = 1;
    for (std::uint32_t d = 0; d < dimensionsN; ++d)
        n *= radixK;
    return n;
}

bool
SimConfig::hasDynamicFaults() const
{
    return dynamicLinkKills > 0 || dynamicDirectedKills > 0 ||
           dynamicRouterKills > 0 || burstLen > 0 ||
           !faultScenario.empty();
}

void
SimConfig::validate() const
{
    if (radixK < 2)
        fatal("radixK must be >= 2 (got ", radixK, ")");
    if (dimensionsN < 1 || dimensionsN > 8)
        fatal("dimensionsN must be in [1, 8] (got ", dimensionsN, ")");
    if (numVcs < 1)
        fatal("numVcs must be >= 1");
    if (bufferDepth < 1)
        fatal("bufferDepth must be >= 1");
    if (injectionChannels < 1 || ejectionChannels < 1)
        fatal("injection/ejection channels must be >= 1");
    const std::uint64_t net_ports = 2ULL * dimensionsN;
    if (net_ports + injectionChannels > kMaxRouterPorts)
        fatal("2*dimensionsN + injectionChannels must be <= ",
              kMaxRouterPorts, " router input ports (got ",
              net_ports + injectionChannels, ")");
    if (net_ports + ejectionChannels > kMaxRouterPorts)
        fatal("2*dimensionsN + ejectionChannels must be <= ",
              kMaxRouterPorts, " router output ports (got ",
              net_ports + ejectionChannels, ")");
    if ((net_ports + injectionChannels) * numVcs > 64)
        fatal("(2*dimensionsN + injectionChannels) * numVcs must be "
              "<= 64 router input VCs (got ",
              (net_ports + injectionChannels) * numVcs, ")");
    if (channelLatency < 1 || channelLatency > 64)
        fatal("channelLatency must be in [1, 64]");
    if (messageLength < 2)
        fatal("messageLength must be >= 2 (head + tail)");
    if (bimodalFracB > 0.0 && messageLengthB < 2)
        fatal("bimodal traffic needs messageLengthB >= 2");
    if (injectionRate < 0.0 || injectionRate > 1.0 * injectionChannels)
        fatal("injectionRate must be in [0, injectionChannels]");
    if (transientFaultRate < 0.0 || transientFaultRate > 1.0)
        fatal("transientFaultRate must be in [0, 1]");
    if (burstRate < 0.0 || burstRate > 1.0)
        fatal("burstRate must be in [0, 1]");
    if (faultWindowEnd != 0 && faultWindowEnd <= faultWindowStart)
        fatal("fault window must end after it starts");
    if (protocol == ProtocolKind::None &&
        (dynamicLinkKills > 0 || dynamicDirectedKills > 0 ||
         dynamicRouterKills > 0 || !faultScenario.empty())) {
        fatal("dynamic link/router faults need a recovery protocol "
              "(cr or fcr); plain wormhole cannot reclaim a worm "
              "stranded on a dead link");
    }

    const bool mesh_only = routing == RoutingKind::WestFirst ||
                           routing == RoutingKind::NegativeFirst ||
                           routing == RoutingKind::PlanarAdaptive;
    if (mesh_only && topology != TopologyKind::Mesh)
        fatal("turn-model/planar-adaptive routing (", toString(routing),
              ") is deadlock-free only on meshes");
    if (routing == RoutingKind::PlanarAdaptive && numVcs < 3)
        fatal("planar-adaptive routing needs >= 3 VCs");

    if (routing == RoutingKind::DimensionOrder &&
        topology == TopologyKind::Torus && numVcs < 2 &&
        protocol == ProtocolKind::None) {
        fatal("DOR on a torus without CR needs >= 2 virtual channels "
              "(dateline classes) for deadlock freedom");
    }
    if (routing == RoutingKind::Duato) {
        const std::uint32_t escapes =
            topology == TopologyKind::Torus ? 2 : 1;
        if (numVcs < escapes + 1)
            fatal("Duato routing needs >= ", escapes + 1,
                  " VCs on this topology (escape + adaptive)");
    }
    if (protocol == ProtocolKind::Fcr && transientFaultRate > 0.0 &&
        timeout == 0) {
        fatal("FCR with faults requires a non-zero timeout");
    }
    if (protocol == ProtocolKind::Fcr &&
        timeoutScheme == TimeoutScheme::DropAtBlock) {
        fatal("FCR cannot run timeout_scheme=drop_at_block: the FCR "
              "receiver refuses a corrupted flit and waits for the "
              "source timeout, which drop_at_block turns off, and its "
              "routers drop only blocked headers, so a refused worm "
              "would hold its path forever");
    }
    if (auditInterval < 1)
        fatal("auditInterval must be >= 1");
    if (jobs > 1024)
        fatal("jobs must be in [0, 1024] (got ", jobs, ")");
    if (shards > 1024)
        fatal("shards must be in [0, 1024] (got ", shards, ")");
    if (statusEverySeconds < 0.0)
        fatal("statusEverySeconds must be >= 0 (got ",
              statusEverySeconds, ")");
}

SimConfig&
SimConfig::set(const std::string& key, const std::string& value)
{
    if (key == "topology") topology = topologyFromString(value);
    else if (key == "k") radixK = static_cast<std::uint32_t>(
        parseU64(key, value));
    else if (key == "n") dimensionsN = static_cast<std::uint32_t>(
        parseU64(key, value));
    else if (key == "vcs") numVcs = static_cast<std::uint32_t>(
        parseU64(key, value));
    else if (key == "buffer_depth") bufferDepth =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "injection_channels") injectionChannels =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "ejection_channels") ejectionChannels =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "channel_latency") channelLatency =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "routing") routing = routingFromString(value);
    else if (key == "protocol") protocol = protocolFromString(value);
    else if (key == "timeout_scheme") timeoutScheme =
        timeoutSchemeFromString(value);
    else if (key == "timeout") timeout = parseU64(key, value);
    else if (key == "backoff") backoff = backoffFromString(value);
    else if (key == "backoff_gap") backoffGap = parseU64(key, value);
    else if (key == "backoff_cap") backoffCap = parseU64(key, value);
    else if (key == "misroute_after_retries") misrouteAfterRetries =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "misroute_budget") misrouteBudget =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "max_retries") maxRetries =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "enforce_dest_order") enforceDestOrder =
        parseU64(key, value) != 0;
    else if (key == "pad_slack") padSlack =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "pattern") pattern = patternFromString(value);
    else if (key == "load") injectionRate = parseF64(key, value);
    else if (key == "msg_len") messageLength =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "msg_len_b") messageLengthB =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "bimodal_frac_b") bimodalFracB = parseF64(key, value);
    else if (key == "hotspot_fraction") hotspotFraction =
        parseF64(key, value);
    else if (key == "max_pending") maxPendingPerNode =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "fault_rate") transientFaultRate =
        parseF64(key, value);
    else if (key == "permanent_faults") permanentLinkFaults =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "dyn_link_kills") dynamicLinkKills =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "dyn_directed_kills") dynamicDirectedKills =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "dyn_router_kills") dynamicRouterKills =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "fault_window_start") faultWindowStart =
        parseU64(key, value);
    else if (key == "fault_window_end") faultWindowEnd =
        parseU64(key, value);
    else if (key == "link_repair_after") linkRepairAfter =
        parseU64(key, value);
    else if (key == "burst_start") burstStart = parseU64(key, value);
    else if (key == "burst_len") burstLen = parseU64(key, value);
    else if (key == "burst_rate") burstRate = parseF64(key, value);
    else if (key == "fault_scenario") faultScenario = value;
    else if (key == "trace") traceFile = value;
    else if (key == "watch") watchSpec = value;
    else if (key == "sample_interval") sampleInterval =
        parseU64(key, value);
    else if (key == "heatmap") heatmapEnabled =
        parseU64(key, value) != 0;
    else if (key == "status") statusFile = value;
    else if (key == "status_interval") statusEverySeconds =
        parseF64(key, value);
    else if (key == "profile") profileEnabled =
        parseU64(key, value) != 0;
    else if (key == "jobs") jobs =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "shards") shards =
        static_cast<std::uint32_t>(parseU64(key, value));
    else if (key == "sched") sched = schedulerFromString(value);
    else if (key == "seed") seed = parseU64(key, value);
    else if (key == "warmup") warmupCycles = parseU64(key, value);
    else if (key == "measure") measureCycles = parseU64(key, value);
    else if (key == "drain") drainCycles = parseU64(key, value);
    else if (key == "deadlock_threshold") deadlockThreshold =
        parseU64(key, value);
    else if (key == "audit_interval") auditInterval =
        parseU64(key, value);
    else
        fatal("unknown config key '", key, "'");
    return *this;
}

SimConfig&
SimConfig::applyArgs(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            fatal("expected key=value argument, got '", arg, "'");
        set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return *this;
}

std::string
SimConfig::summary() const
{
    std::ostringstream os;
    os << radixK << "-ary " << dimensionsN << "-cube "
       << toString(topology) << ", " << toString(routing) << "/"
       << toString(protocol) << ", vcs=" << numVcs << " depth="
       << bufferDepth << ", load=" << injectionRate << " len="
       << messageLength << ", pattern=" << toString(pattern);
    return os.str();
}

std::string
toString(TopologyKind k)
{
    switch (k) {
      case TopologyKind::Torus: return "torus";
      case TopologyKind::Mesh: return "mesh";
    }
    panic("bad TopologyKind");
}

std::string
toString(RoutingKind k)
{
    switch (k) {
      case RoutingKind::DimensionOrder: return "dor";
      case RoutingKind::MinimalAdaptive: return "minimal_adaptive";
      case RoutingKind::Duato: return "duato";
      case RoutingKind::WestFirst: return "west_first";
      case RoutingKind::NegativeFirst: return "negative_first";
      case RoutingKind::PlanarAdaptive: return "planar_adaptive";
    }
    panic("bad RoutingKind");
}

std::string
toString(ProtocolKind k)
{
    switch (k) {
      case ProtocolKind::None: return "none";
      case ProtocolKind::Cr: return "cr";
      case ProtocolKind::Fcr: return "fcr";
    }
    panic("bad ProtocolKind");
}

std::string
toString(TimeoutScheme k)
{
    switch (k) {
      case TimeoutScheme::SourceStall: return "source_stall";
      case TimeoutScheme::SourceImin: return "source_imin";
      case TimeoutScheme::PathWide: return "path_wide";
      case TimeoutScheme::DropAtBlock: return "drop_at_block";
    }
    panic("bad TimeoutScheme");
}

std::string
toString(BackoffScheme k)
{
    switch (k) {
      case BackoffScheme::Static: return "static";
      case BackoffScheme::Exponential: return "exponential";
    }
    panic("bad BackoffScheme");
}

std::string
toString(TrafficPattern k)
{
    switch (k) {
      case TrafficPattern::Uniform: return "uniform";
      case TrafficPattern::BitComplement: return "bit_complement";
      case TrafficPattern::Transpose: return "transpose";
      case TrafficPattern::BitReversal: return "bit_reversal";
      case TrafficPattern::Hotspot: return "hotspot";
      case TrafficPattern::Neighbor: return "neighbor";
      case TrafficPattern::Tornado: return "tornado";
    }
    panic("bad TrafficPattern");
}

std::string
toString(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::Sweep: return "sweep";
      case SchedulerKind::Active: return "active";
    }
    panic("bad SchedulerKind");
}

TopologyKind
topologyFromString(const std::string& s)
{
    if (s == "torus") return TopologyKind::Torus;
    if (s == "mesh") return TopologyKind::Mesh;
    fatal("unknown topology '", s, "'");
}

RoutingKind
routingFromString(const std::string& s)
{
    if (s == "dor") return RoutingKind::DimensionOrder;
    if (s == "minimal_adaptive") return RoutingKind::MinimalAdaptive;
    if (s == "duato") return RoutingKind::Duato;
    if (s == "west_first") return RoutingKind::WestFirst;
    if (s == "negative_first") return RoutingKind::NegativeFirst;
    if (s == "planar_adaptive") return RoutingKind::PlanarAdaptive;
    fatal("unknown routing '", s, "'");
}

ProtocolKind
protocolFromString(const std::string& s)
{
    if (s == "none") return ProtocolKind::None;
    if (s == "cr") return ProtocolKind::Cr;
    if (s == "fcr") return ProtocolKind::Fcr;
    fatal("unknown protocol '", s, "'");
}

TimeoutScheme
timeoutSchemeFromString(const std::string& s)
{
    if (s == "source_stall") return TimeoutScheme::SourceStall;
    if (s == "source_imin") return TimeoutScheme::SourceImin;
    if (s == "path_wide") return TimeoutScheme::PathWide;
    if (s == "drop_at_block") return TimeoutScheme::DropAtBlock;
    fatal("unknown timeout scheme '", s, "'");
}

BackoffScheme
backoffFromString(const std::string& s)
{
    if (s == "static") return BackoffScheme::Static;
    if (s == "exponential") return BackoffScheme::Exponential;
    fatal("unknown backoff scheme '", s, "'");
}

SchedulerKind
schedulerFromString(const std::string& s)
{
    if (s == "sweep") return SchedulerKind::Sweep;
    if (s == "active") return SchedulerKind::Active;
    fatal("unknown scheduler '", s, "'");
}

TrafficPattern
patternFromString(const std::string& s)
{
    if (s == "uniform") return TrafficPattern::Uniform;
    if (s == "bit_complement") return TrafficPattern::BitComplement;
    if (s == "transpose") return TrafficPattern::Transpose;
    if (s == "bit_reversal") return TrafficPattern::BitReversal;
    if (s == "hotspot") return TrafficPattern::Hotspot;
    if (s == "neighbor") return TrafficPattern::Neighbor;
    if (s == "tornado") return TrafficPattern::Tornado;
    fatal("unknown traffic pattern '", s, "'");
}

} // namespace crnet
