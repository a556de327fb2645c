/**
 * @file
 * Randomized stress: draw whole network configurations at random
 * (topology, shape, VCs, depths, channel latency, protocol, timeout
 * scheme, loads, faults), run them hot, quiesce, and assert every
 * system invariant.
 * Any panic inside the simulator (credit overflow, interleaved worms,
 * out-of-order assembly...) also fails the test, so this sweeps the
 * corner-case space the targeted tests cannot enumerate.
 *
 * Every seed also runs a cross-mode differential: the same config
 * under an uneven shards=3 split that hops through captureSnapshot/
 * restoreSnapshot mid-run, and under sched=sweep. The legs must agree
 * on every counter and accumulator and on their whole summary, the
 * sharded leg's final snapshot must be byte-identical to shards=1,
 * and every leg writes a trace that must match shards=1's byte for
 * byte: the per-shard Discard/Abort staging replays in the serial
 * order at every shard count and scheduler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"
#include "tests/same_result.hh"

namespace crnet {
namespace {

SimConfig
randomConfig(Rng& rng)
{
    SimConfig cfg;
    cfg.topology = rng.chance(0.5) ? TopologyKind::Torus
                                   : TopologyKind::Mesh;
    cfg.radixK = static_cast<std::uint32_t>(rng.between(3, 6));
    cfg.dimensionsN = static_cast<std::uint32_t>(rng.between(1, 3));
    cfg.numVcs = static_cast<std::uint32_t>(rng.between(1, 4));
    cfg.bufferDepth = static_cast<std::uint32_t>(rng.between(1, 4));
    cfg.channelLatency =
        static_cast<std::uint32_t>(rng.between(1, 3));
    cfg.injectionChannels =
        static_cast<std::uint32_t>(rng.between(1, 2));
    cfg.ejectionChannels =
        static_cast<std::uint32_t>(rng.between(1, 2));
    cfg.messageLength = static_cast<std::uint32_t>(rng.between(2, 24));
    cfg.injectionRate = 0.02 + 0.18 * rng.uniform();
    cfg.timeout = static_cast<Cycle>(rng.between(8, 64));
    cfg.padSlack = static_cast<std::uint32_t>(rng.between(0, 4));
    cfg.backoff = rng.chance(0.5) ? BackoffScheme::Static
                                  : BackoffScheme::Exponential;
    cfg.backoffGap = static_cast<Cycle>(rng.between(1, 32));
    cfg.enforceDestOrder = rng.chance(0.8);
    cfg.seed = rng.next();

    // Protocol/routing draw, constrained to legal combinations.
    const int proto = static_cast<int>(rng.below(3));
    if (proto == 0) {
        cfg.protocol = ProtocolKind::Cr;
        cfg.routing = rng.chance(0.7) ? RoutingKind::MinimalAdaptive
                                      : RoutingKind::DimensionOrder;
    } else if (proto == 1) {
        cfg.protocol = ProtocolKind::Fcr;
        cfg.routing = RoutingKind::MinimalAdaptive;
        if (rng.chance(0.5))
            cfg.transientFaultRate = 0.002 * rng.uniform();
        if (rng.chance(0.3) && cfg.dimensionsN >= 2 &&
            cfg.radixK >= 4) {
            // Smaller shapes cannot spare a link above the degree
            // floor the fault injector maintains.
            cfg.permanentLinkFaults = 1;
            cfg.misrouteAfterRetries = 2;
        }
    } else {
        cfg.protocol = ProtocolKind::None;
        // Must be self-deadlock-free.
        if (cfg.topology == TopologyKind::Torus) {
            if (rng.chance(0.5)) {
                cfg.routing = RoutingKind::DimensionOrder;
                cfg.numVcs = std::max<std::uint32_t>(cfg.numVcs, 2);
            } else {
                cfg.routing = RoutingKind::Duato;
                cfg.numVcs = std::max<std::uint32_t>(cfg.numVcs, 3);
            }
        } else {
            cfg.routing = RoutingKind::DimensionOrder;
        }
    }
    if (cfg.protocol != ProtocolKind::None && rng.chance(0.9)) {
        // Both source schemes and both router-side ones; FCR cannot
        // drop at block (SimConfig::validate says why). Over the
        // suite's seeds this draws every router-side scheme on CR and
        // path_wide on FCR (SeedsCoverTheRouterTimeoutSchemes).
        const TimeoutScheme schemes[] = {
            TimeoutScheme::SourceImin, TimeoutScheme::SourceStall,
            TimeoutScheme::PathWide, TimeoutScheme::DropAtBlock};
        const std::uint64_t n =
            cfg.protocol == ProtocolKind::Fcr ? 3 : 4;
        cfg.timeoutScheme = schemes[rng.below(n)];
    }
    return cfg;
}

/** Cycles of loaded traffic before the drain. */
constexpr Cycle kLoadedCycles = 4000;

/**
 * The stress schedule: kLoadedCycles of traffic, then drain to
 * quiescence. With hop_at > 0 the run moves, at that cycle, into a
 * freshly built network through captureSnapshot/restoreSnapshot.
 */
void
runStress(const SimConfig& cfg, Cycle hop_at,
          std::unique_ptr<Network>& net)
{
    net = std::make_unique<Network>(cfg);
    for (Cycle i = 0; i < kLoadedCycles; ++i) {
        if (hop_at != 0 && i == hop_at) {
            auto restored = std::make_unique<Network>(cfg);
            ASSERT_EQ(restoreSnapshot(*restored, captureSnapshot(*net)),
                      "");
            net = std::move(restored);
        }
        net->tick();
        if (cfg.protocol != ProtocolKind::None ||
            net->routing().selfDeadlockFree()) {
            ASSERT_FALSE(net->deadlocked())
                << "deadlock in a deadlock-free config";
        }
    }
    net->setTrafficEnabled(false);
    Cycle spent = 0;
    while (!net->quiescent() && spent < 150000) {
        net->tick();
        ++spent;
    }
    ASSERT_TRUE(net->quiescent()) << "failed to quiesce";
}

/** Every counter, accumulator and histogram bin, serialized. */
std::vector<std::uint8_t>
statsBytes(const NetworkStats& s)
{
    StateWriter w;
    NetworkStats::serialize(s, w);
    return w.bytes();
}

/**
 * A finished leg's .jsonl trace (its config's traceFile), read and
 * then deleted with the Chrome file.
 */
std::string
takeTrace(Network& net)
{
    net.tracer()->flush();
    const std::string prefix = net.config().traceFile;
    std::ifstream in(prefix + ".jsonl");
    std::ostringstream os;
    os << in.rdbuf();
    std::remove((prefix + ".jsonl").c_str());
    std::remove((prefix + ".json").c_str());
    return os.str();
}

/** A quiesced leg's RunResult, as runExperiment would report it. */
RunResult
summarized(const Network& net)
{
    return summarize(net, net.measuredDrained(), net.now());
}

/** Seeds of the parameterized suite: [0, kSeeds). */
constexpr std::uint64_t kSeeds = 40;

/** The stream that draws seed `param`'s config and snapshot hop. */
Rng
metaRng(std::uint64_t param)
{
    return Rng(param * 0x9e3779b97f4a7c15ULL + 17);
}

TEST(FuzzStressDraw, SeedsCoverTheRouterTimeoutSchemes)
{
    // The suite exercises the router-side timeout loop only if some
    // seed draws each router-side scheme under each protocol it
    // supports.
    std::set<std::pair<ProtocolKind, TimeoutScheme>> drawn;
    for (std::uint64_t p = 0; p < kSeeds; ++p) {
        Rng meta = metaRng(p);
        const SimConfig cfg = randomConfig(meta);
        drawn.emplace(cfg.protocol, cfg.timeoutScheme);
    }
    EXPECT_TRUE(drawn.count({ProtocolKind::Cr, TimeoutScheme::PathWide}));
    EXPECT_TRUE(drawn.count({ProtocolKind::Fcr, TimeoutScheme::PathWide}));
    EXPECT_TRUE(
        drawn.count({ProtocolKind::Cr, TimeoutScheme::DropAtBlock}));
}

class FuzzStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzStress, InvariantsSurviveRandomConfigs)
{
    Rng meta = metaRng(GetParam());
    SimConfig cfg = randomConfig(meta);
    cfg.shards = 1;
    SCOPED_TRACE(cfg.summary());
    cfg.validate();
    // Every leg traces under its own prefix (the prefix is not part
    // of the config fingerprint, so the snapshot hop restores).
    const std::string prefix = ::testing::TempDir() + "crnet_fuzz_" +
                               std::to_string(GetParam()) + "_";
    cfg.traceFile = prefix + "one";

    std::unique_ptr<Network> net;
    runStress(cfg, 0, net);
    if (HasFatalFailure())
        return;

    const NetworkStats& s = net->stats();
    // Flit conservation.
    EXPECT_EQ(s.flitsInjected.value(),
              s.flitsConsumed.value() + s.router.flitsPurged.value() +
                  s.router.stragglersDropped.value());
    // Exactly-once; in-order when the gate is on.
    EXPECT_EQ(s.duplicateDeliveries.value(), 0u);
    if (cfg.enforceDestOrder) {
        EXPECT_EQ(s.orderViolations.value(), 0u);
    }
    // Commit/delivery agreement under CR-family protocols.
    if (cfg.protocol != ProtocolKind::None) {
        EXPECT_EQ(s.messagesCommitted.value(),
                  s.messagesDelivered.value());
    }
    // FCR never delivers corrupted data.
    if (cfg.protocol == ProtocolKind::Fcr) {
        EXPECT_EQ(s.corruptedDeliveries.value(), 0u);
    }

    const std::string trace = takeTrace(*net);
    EXPECT_FALSE(trace.empty());

    SimConfig sharded = cfg;
    sharded.shards = 3;
    sharded.traceFile = prefix + "three";
    std::unique_ptr<Network> split;
    runStress(sharded, 1 + meta.below(kLoadedCycles - 1), split);
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(takeTrace(*split) == trace)
        << "shards=3 trace differs from shards=1";
    const std::vector<std::uint8_t> want = statsBytes(s);
    const RunResult summary = summarized(*net);
    EXPECT_TRUE(statsBytes(split->stats()) == want)
        << "shards=3 stats differ from shards=1";
    EXPECT_TRUE(captureSnapshot(*split).payload ==
                captureSnapshot(*net).payload)
        << "shards=3 end state differs from shards=1";
    {
        SCOPED_TRACE("shards=3 summary");
        expectSameResult(summarized(*split), summary);
    }

    SimConfig sweep = cfg;
    sweep.sched = SchedulerKind::Sweep;
    sweep.traceFile = prefix + "sweep";
    std::unique_ptr<Network> swept;
    runStress(sweep, 0, swept);
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(takeTrace(*swept) == trace)
        << "sched=sweep trace differs from sched=active";
    EXPECT_TRUE(statsBytes(swept->stats()) == want)
        << "sched=sweep stats differ from sched=active";
    SCOPED_TRACE("sched=sweep summary");
    expectSameResult(summarized(*swept), summary);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzStress,
                         ::testing::Range<std::uint64_t>(0, kSeeds));

} // namespace
} // namespace crnet
