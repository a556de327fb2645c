/**
 * @file
 * google-benchmark microbenchmarks for the simulation engine itself:
 * how fast do the primitives and the whole-network tick run. These
 * guard the simulator's own performance (a slow engine quietly
 * shrinks every experiment).
 */

#include <benchmark/benchmark.h>

#include "src/core/network.hh"
#include "src/nic/injector.hh"
#include "src/sim/checksum.hh"
#include "src/sim/rng.hh"

namespace {

using namespace crnet;

void
BM_RngNext(benchmark::State& state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngBelow(benchmark::State& state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(13));
}
BENCHMARK(BM_RngBelow);

void
BM_Crc8(benchmark::State& state)
{
    std::uint64_t x = 0x0123456789abcdefULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(crc8(x));
        ++x;
    }
}
BENCHMARK(BM_Crc8);

void
BM_NetworkTickIdle(benchmark::State& state)
{
    SimConfig cfg;
    cfg.radixK = static_cast<std::uint32_t>(state.range(0));
    cfg.dimensionsN = 2;
    cfg.injectionRate = 0.0;
    Network net(cfg);
    net.setTrafficEnabled(false);
    for (auto _ : state)
        net.tick();
    state.SetItemsProcessed(state.iterations() *
                            cfg.numNodes());
}
BENCHMARK(BM_NetworkTickIdle)->Arg(4)->Arg(8)->Arg(16);

void
BM_NetworkTickLoaded(benchmark::State& state)
{
    SimConfig cfg;
    cfg.radixK = static_cast<std::uint32_t>(state.range(0));
    cfg.dimensionsN = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.injectionRate = 0.3;
    Network net(cfg);
    net.run(500);  // Warm the network up to steady state.
    for (auto _ : state)
        net.tick();
    state.SetItemsProcessed(state.iterations() * cfg.numNodes());
}
BENCHMARK(BM_NetworkTickLoaded)->Arg(8)->Arg(16);

void
BM_InjectorNextEventCycle(benchmark::State& state)
{
    // A deep backoff queue: the incremental notBefore minimum keeps
    // the reschedule probe O(1) however deep the queue gets (it used
    // to rescan every pending message).
    SimConfig cfg;
    const auto depth = static_cast<std::uint32_t>(state.range(0));
    cfg.maxPendingPerNode = depth;
    TorusTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    MinimalAdaptiveRouting algo(topo, faults, cfg.numVcs);
    NetworkStats stats;
    Injector inj(0, cfg, topo, algo, &stats, Rng(2));
    for (std::uint32_t i = 0; i < depth; ++i) {
        PendingMessage m;
        m.id = i + 1;
        m.src = 0;
        m.dst = static_cast<NodeId>(1 + i % 63);
        m.payloadLen = 8;
        m.notBefore = 1000 + i;
        inj.enqueue(m);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(inj.nextEventCycle(0));
}
BENCHMARK(BM_InjectorNextEventCycle)->Arg(1)->Arg(64)->Arg(4096);

void
BM_RouterTickBusy(benchmark::State& state)
{
    // One router under synthetic pressure: heads keep arriving.
    SimConfig cfg;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    TorusTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    MinimalAdaptiveRouting algo(topo, faults, cfg.numVcs);
    RouterStats stats;
    Router router(9, cfg, algo, &stats, Rng(2));
    Cycle now = 0;
    MsgId msg = 0;
    for (auto _ : state) {
        if (router.vcIdle(0, 0)) {
            Flit h;
            h.type = FlitType::Head;
            h.msg = ++msg;
            h.dst = 12;
            router.acceptFlit(0, 0, h);
        }
        router.tick(now++);
        for (const SentFlit& f : router.sentFlits) {
            if (f.outPort < router.networkPorts())
                router.acceptCredit(f.outPort, f.vc);
        }
        // Terminate worms immediately: feed tails.
        if (!router.vcIdle(0, 0)) {
            Flit t;
            t.type = FlitType::Tail;
            t.msg = msg;
            t.seq = 1;
            t.dst = 12;
            router.acceptFlit(0, 0, t);
        }
    }
}
BENCHMARK(BM_RouterTickBusy);

void
BM_RouterTickContended(benchmark::State& state)
{
    // Every network and injection input holds a worm for the same
    // output (+x toward node 10), each on its own VC of that output,
    // and credits return at once: every cycle the switch arbiter picks
    // one of five requesting inputs.
    SimConfig cfg;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 5;  // One output VC per input port.
    TorusTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    MinimalAdaptiveRouting algo(topo, faults, cfg.numVcs);
    RouterStats stats;
    Router router(9, cfg, algo, &stats, Rng(2));
    constexpr std::uint32_t kWormFlits = 16;
    const PortId inputs = router.numInPorts();
    std::vector<std::uint32_t> seq(inputs, kWormFlits);
    std::vector<MsgId> worm(inputs, 0);
    MsgId msg = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (PortId p = 0; p < inputs; ++p) {
            if (router.inputOccupancy(p, 0) >= cfg.bufferDepth)
                continue;
            if (seq[p] == kWormFlits) {
                if (!router.vcIdle(p, 0))
                    continue;  // The last worm's tail is still queued.
                worm[p] = ++msg;
                seq[p] = 0;
            }
            Flit f;
            f.type = seq[p] == 0                ? FlitType::Head
                     : seq[p] + 1 == kWormFlits ? FlitType::Tail
                                                : FlitType::Body;
            f.msg = worm[p];
            f.seq = seq[p]++;
            f.dst = 10;
            router.acceptFlit(p, 0, f);
        }
        router.tick(now++);
        for (const SentFlit& f : router.sentFlits)
            router.acceptCredit(f.outPort, f.vc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(stats.flitsForwarded.value()));
}
BENCHMARK(BM_RouterTickContended);

} // namespace

BENCHMARK_MAIN();
