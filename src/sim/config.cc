#include "src/sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "src/sim/log.hh"

namespace crnet {

std::uint64_t
parseInteger(const std::string& key, const std::string& value,
             std::uint64_t lo, std::uint64_t hi)
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
    if (v < lo || v > hi)
        fatal("config key '", key, "': expected integer in [", lo, ", ",
              hi, "], got '", value, "'");
    return v;
}

std::vector<std::pair<std::string, std::string>>
splitArgs(int argc, char** argv)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            fatal("expected key=value argument, got '", arg, "'");
        out.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return out;
}

namespace {

/** A finite number: strtod alone would accept "nan" and "inf". */
double
parseNumber(const std::string& key, const std::string& value)
{
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v))
        fatal("config key '", key, "': expected number, got '", value,
              "'");
    return v;
}

template <typename E>
std::string
nameOf(E e)
{
    const EnumNames t = enumNames(e);
    const auto v = static_cast<std::size_t>(e);
    if (v >= t.names.size())
        panic("bad ", t.what, " value ", v);
    return t.names[v];
}

template <typename E>
E
valueOf(const std::string& name)
{
    const EnumNames t = enumNames(E{});
    const auto it = std::find(t.names.begin(), t.names.end(), name);
    if (it == t.names.end())
        fatal("unknown ", t.what, " '", name, "'");
    return static_cast<E>(it - t.names.begin());
}

/** Parse `value` into `field` by the field's type. */
template <typename T>
void
parseInto(T& field, const std::string& key, const std::string& value)
{
    if constexpr (std::is_same_v<T, std::string>)
        field = value;
    else if constexpr (std::is_same_v<T, bool>)
        field = parseInteger(key, value) != 0;
    else if constexpr (std::is_same_v<T, double>)
        field = parseNumber(key, value);
    else if constexpr (std::is_enum_v<T>)
        field = valueOf<T>(value);
    else
        field = static_cast<T>(parseInteger(
            key, value, 0, std::numeric_limits<T>::max()));
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
    if (jobs < 1 || jobs > 1024)
        fatal("jobs must be in [1, 1024] (got ", jobs, ")");
    if (shards < 1 || shards > 1024)
        fatal("shards must be in [1, 1024] (got ", shards, ")");
    if (statusEverySeconds < 0.0)
        fatal("statusEverySeconds must be >= 0 (got ",
              statusEverySeconds, ")");
}

SimConfig&
SimConfig::set(const std::string& key, const std::string& value)
{
    bool found = false;
    fields(*this, [&](const char* name, auto& field, Fp) {
        if (!found && key == name) {
            found = true;
            parseInto(field, key, value);
        }
    });
    if (!found)
        fatal("unknown config key '", key, "'");
    return *this;
}

SimConfig&
SimConfig::applyArgs(int argc, char** argv)
{
    for (const auto& [key, value] : splitArgs(argc, argv))
        set(key, value);
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

std::string toString(TopologyKind k) { return nameOf(k); }
std::string toString(RoutingKind k) { return nameOf(k); }
std::string toString(ProtocolKind k) { return nameOf(k); }
std::string toString(TimeoutScheme k) { return nameOf(k); }
std::string toString(BackoffScheme k) { return nameOf(k); }
std::string toString(TrafficPattern k) { return nameOf(k); }
std::string toString(SchedulerKind k) { return nameOf(k); }

} // namespace crnet
