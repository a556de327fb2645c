/**
 * @file
 * Unit tests for SimConfig parsing, validation and round trips.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/audit.hh"
#include "src/sim/config.hh"
#include "src/sim/snapshot.hh"

namespace crnet {
namespace {

TEST(Config, DefaultsValidate)
{
    SimConfig cfg;
    cfg.validate();  // Must not call fatal().
    EXPECT_EQ(cfg.numNodes(), 256u);  // 16-ary 2-cube.
}

TEST(Config, NumNodesScales)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 3;
    EXPECT_EQ(cfg.numNodes(), 64u);
}

TEST(Config, SetParsesEveryScalarKind)
{
    SimConfig cfg;
    cfg.set("k", "8").set("n", "3").set("vcs", "4")
        .set("buffer_depth", "4").set("load", "0.25")
        .set("msg_len", "32").set("timeout", "64").set("seed", "77")
        .set("pattern", "transpose").set("routing", "duato")
        .set("protocol", "fcr").set("topology", "mesh")
        .set("timeout_scheme", "path_wide").set("backoff", "static")
        .set("fault_rate", "0.001");
    EXPECT_EQ(cfg.radixK, 8u);
    EXPECT_EQ(cfg.dimensionsN, 3u);
    EXPECT_EQ(cfg.numVcs, 4u);
    EXPECT_EQ(cfg.bufferDepth, 4u);
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.25);
    EXPECT_EQ(cfg.messageLength, 32u);
    EXPECT_EQ(cfg.timeout, 64u);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_EQ(cfg.pattern, TrafficPattern::Transpose);
    EXPECT_EQ(cfg.routing, RoutingKind::Duato);
    EXPECT_EQ(cfg.protocol, ProtocolKind::Fcr);
    EXPECT_EQ(cfg.topology, TopologyKind::Mesh);
    EXPECT_EQ(cfg.timeoutScheme, TimeoutScheme::PathWide);
    EXPECT_EQ(cfg.backoff, BackoffScheme::Static);
    EXPECT_DOUBLE_EQ(cfg.transientFaultRate, 0.001);
}

TEST(Config, UnknownKeyIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.set("nonsense", "1"), "unknown config key");
}

TEST(Config, BadNumberIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.set("k", "abc"), "expected integer");
    // A sign is not a digit: "-1" must not wrap to 2^64 - 1.
    EXPECT_DEATH(cfg.set("warmup", "-1"), "expected integer");
    EXPECT_DEATH(cfg.set("load", "xyz"), "expected number");
}

TEST(Config, IntegerMustFitItsField)
{
    SimConfig cfg;
    // 2^32 + 2 would wrap to 2 in the 32-bit radixK.
    EXPECT_DEATH(cfg.set("k", "4294967298"), "expected integer");
    cfg.set("k", "4294967295");
    EXPECT_EQ(cfg.radixK, 4294967295u);
    cfg.set("seed", "18446744073709551615");
    EXPECT_EQ(cfg.seed, 18446744073709551615u);
    EXPECT_DEATH(cfg.set("seed", "18446744073709551616"),
                 "expected integer");
}

TEST(Config, NumberMustBeFinite)
{
    // NaN fails every range test in validate(), so it must not get in.
    SimConfig cfg;
    EXPECT_DEATH(cfg.set("load", "nan"), "expected number");
    EXPECT_DEATH(cfg.set("fault_rate", "nan"), "expected number");
    EXPECT_DEATH(cfg.set("load", "inf"), "expected number");
    EXPECT_DEATH(cfg.set("burst_rate", "-inf"), "expected number");
    cfg.set("load", "1e-3");
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.001);
}

TEST(Config, JobsAndShardsDefaultToOne)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.jobs, 1u);
    EXPECT_EQ(cfg.shards, 1u);
    cfg.jobs = 0;
    EXPECT_DEATH(cfg.validate(), "jobs must be in \\[1, 1024\\]");
    cfg.jobs = 1024;
    cfg.shards = 0;
    EXPECT_DEATH(cfg.validate(), "shards must be in \\[1, 1024\\]");
    cfg.shards = 1024;
    cfg.validate();
}

TEST(Config, TurnModelOnTorusRejected)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::WestFirst;
    EXPECT_DEATH(cfg.validate(), "deadlock-free only on meshes");
}

TEST(Config, DorTorusWithoutVcsAndWithoutCrRejected)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::DimensionOrder;
    cfg.protocol = ProtocolKind::None;
    cfg.numVcs = 1;
    EXPECT_DEATH(cfg.validate(), "dateline");
}

TEST(Config, DorTorusSingleVcUnderCrAccepted)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.routing = RoutingKind::DimensionOrder;
    cfg.protocol = ProtocolKind::Cr;
    cfg.numVcs = 1;
    cfg.validate();
}

TEST(Config, DuatoNeedsEscapePlusAdaptive)
{
    SimConfig cfg;
    cfg.routing = RoutingKind::Duato;
    cfg.numVcs = 2;  // Torus needs 3.
    EXPECT_DEATH(cfg.validate(), "Duato");
    cfg.numVcs = 3;
    cfg.validate();
    cfg.topology = TopologyKind::Mesh;
    cfg.numVcs = 2;  // Mesh: 1 escape + 1 adaptive.
    cfg.validate();
}

TEST(Config, InjectionPortsBeyondArbiterMaskRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 2;
    cfg.injectionChannels = 60;  // 4 + 60 = 64 input ports: the limit.
    cfg.validate();
    cfg.injectionChannels = 61;
    EXPECT_DEATH(cfg.validate(), "injectionChannels must be <= 64");
}

TEST(Config, EjectionPortsBeyondArbiterMaskRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 8;
    cfg.ejectionChannels = 48;  // 16 + 48 = 64 output ports: the limit.
    cfg.validate();
    cfg.ejectionChannels = 49;
    EXPECT_DEATH(cfg.validate(), "ejectionChannels must be <= 64");
}

TEST(Config, InputVcsBeyondLiveVcMasksRejected)
{
    SimConfig cfg;
    cfg.dimensionsN = 3;
    cfg.injectionChannels = 2;
    cfg.numVcs = 8;  // (6 + 2) * 8 = 64 input VCs: the limit.
    cfg.validate();
    cfg.numVcs = 9;  // 72.
    EXPECT_DEATH(cfg.validate(), "must be <= 64 router input VCs");
    cfg.numVcs = 8;
    cfg.injectionChannels = 3;  // 9 * 8 = 72.
    EXPECT_DEATH(cfg.validate(), "must be <= 64 router input VCs");
}

TEST(Config, FcrWithDropAtBlockRejected)
{
    SimConfig cfg;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.timeoutScheme = TimeoutScheme::DropAtBlock;
    EXPECT_DEATH(cfg.validate(), "refused worm would hold its path");
    cfg.protocol = ProtocolKind::Cr;
    cfg.validate();
    cfg.protocol = ProtocolKind::Fcr;
    cfg.timeoutScheme = TimeoutScheme::PathWide;
    cfg.validate();
}

TEST(Config, ApplyArgsParsesArgv)
{
    SimConfig cfg;
    const char* argv_c[] = {"prog", "k=4", "load=0.3"};
    cfg.applyArgs(3, const_cast<char**>(argv_c));
    EXPECT_EQ(cfg.radixK, 4u);
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.3);
}

TEST(Config, EnumStringRoundTrips)
{
    SimConfig cfg;
    int enum_rows = 0;
    SimConfig::fields(cfg, [&](const char* key, auto& field, Fp) {
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_enum_v<T>) {
            ++enum_rows;
            const std::size_t n = enumNames(field).names.size();
            for (std::size_t v = 0; v < n; ++v) {
                const T want = static_cast<T>(v);
                cfg.set(key, toString(want));
                EXPECT_EQ(field, want) << key << "=" << toString(want);
            }
            EXPECT_DEATH(cfg.set(key, "no_such_name"), "unknown");
        }
    });
    EXPECT_EQ(enum_rows, 7);
}

/** Each row's value as text, in field-list order. */
std::vector<std::string>
rowValues(const SimConfig& cfg)
{
    std::vector<std::string> out;
    SimConfig::fields(cfg, [&](const char*, const auto& field, Fp) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>)
            out.push_back(field);
        else if constexpr (std::is_enum_v<T>)
            out.push_back(toString(field));
        else
            out.push_back(std::to_string(field));
    });
    return out;
}

/** A `key=value` spelling of a value other than `field`'s. */
template <typename T>
std::string
otherValue(const T& field)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return field + "x";
    } else if constexpr (std::is_same_v<T, bool>) {
        return field ? "0" : "1";
    } else if constexpr (std::is_enum_v<T>) {
        const auto names = enumNames(field).names;
        return names[(static_cast<std::size_t>(field) + 1) % names.size()];
    } else {
        return std::to_string(field + 1);
    }
}

TEST(Config, FingerprintCoversExactlyTheCoveredRows)
{
    const SimConfig base;
    const std::uint64_t want = configFingerprint(base);
    const std::vector<std::string> base_values = rowValues(base);
    std::set<std::string> keys;
    std::size_t row = 0;
    int covered = 0;
    SimConfig::fields(base, [&](const char* key, const auto& field,
                                Fp fp) {
        SCOPED_TRACE(key);
        EXPECT_TRUE(keys.insert(key).second) << "duplicate key";
        SimConfig cfg = base;
        cfg.set(key, otherValue(field));
        // The key reaches its own row's field and no other.
        std::vector<std::string> values = rowValues(cfg);
        EXPECT_NE(values[row], base_values[row]);
        values[row] = base_values[row];
        EXPECT_EQ(values, base_values);
        EXPECT_EQ(configFingerprint(cfg) != want, fp == Fp::Cover);
        if (fp == Fp::Cover)
            ++covered;
        ++row;
    });
    EXPECT_EQ(row, 55u);
    EXPECT_EQ(covered, 48);
}

TEST(Config, FingerprintPinned)
{
    // Every campaign journal on disk carries this fingerprint: a
    // change to either value orphans them (bump kJournalVersion).
    SimConfig changed;
    changed.set("topology", "mesh").set("k", "5").set("n", "3")
        .set("vcs", "3").set("buffer_depth", "4")
        .set("injection_channels", "2").set("ejection_channels", "3")
        .set("channel_latency", "2").set("routing", "duato")
        .set("protocol", "fcr").set("timeout_scheme", "path_wide")
        .set("timeout", "40").set("backoff", "static")
        .set("backoff_gap", "17").set("backoff_cap", "2048")
        .set("misroute_after_retries", "2").set("misroute_budget", "3")
        .set("max_retries", "9").set("enforce_dest_order", "0")
        .set("pad_slack", "5").set("pattern", "tornado")
        .set("load", "0.35").set("msg_len", "24").set("msg_len_b", "64")
        .set("bimodal_frac_b", "0.25").set("hotspot_fraction", "0.3")
        .set("max_pending", "32").set("fault_rate", "0.002")
        .set("permanent_faults", "3").set("dyn_link_kills", "2")
        .set("dyn_directed_kills", "1").set("dyn_router_kills", "1")
        .set("fault_window_start", "100").set("fault_window_end", "900")
        .set("link_repair_after", "250").set("burst_start", "300")
        .set("burst_len", "50").set("burst_rate", "0.01")
        .set("fault_scenario", "faults.scenario").set("watch", "3,0-15")
        .set("sample_interval", "100").set("heatmap", "1")
        .set("seed", "20260706").set("warmup", "500")
        .set("measure", "4000").set("drain", "9000")
        .set("deadlock_threshold", "30000").set("audit_interval", "8");
    const bool audit = CRNET_AUDIT_ENABLED;
    EXPECT_EQ(configFingerprint(SimConfig{}),
              audit ? 0xc136d2ce5c618971u : 0xb93d63442b66b9e7u);
    EXPECT_EQ(configFingerprint(changed),
              audit ? 0xb901ff317903ffd2u : 0xaac91fe30e04cf44u);
    // The skipped rows leave it alone.
    changed.set("trace", "t").set("status", "s")
        .set("status_interval", "5").set("profile", "1")
        .set("sched", "sweep").set("jobs", "4").set("shards", "3");
    EXPECT_EQ(configFingerprint(changed),
              audit ? 0xb901ff317903ffd2u : 0xaac91fe30e04cf44u);
}

TEST(Config, SummaryMentionsKeyFields)
{
    SimConfig cfg;
    const std::string s = cfg.summary();
    EXPECT_NE(s.find("torus"), std::string::npos);
    EXPECT_NE(s.find("cr"), std::string::npos);
}

} // namespace
} // namespace crnet
