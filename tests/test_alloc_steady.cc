/**
 * @file
 * Steady-state allocation audit. Once a network has warmed up and
 * drained to quiescence, ticking it must perform ZERO heap
 * allocations under either scheduler and at any shard count. The
 * hot-path containers (wave segments, shard stages, the shard
 * outboxes, NIC scratch vectors) are pre-reserved at construction and
 * recycled, never recreated, and a sharded cycle releases and joins
 * its crew without submitting tasks.
 *
 * With traffic on, what a cycle allocates is bounded per delivered
 * message: the receiver's exactly-once bookkeeping (an assembly node
 * and a seen-set entry) by design. Source queues, retry lists and the
 * busy-destination tables keep their capacity, so a worm start or a
 * retry allocates nothing once they reached their high-water marks.
 *
 * The counter instruments the global operator new/delete. gtest's own
 * machinery allocates too, so the counted window is exactly the
 * net.run() call between two counter reads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/network.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void*
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace crnet {
namespace {

SimConfig
steadyCfg(SchedulerKind sched, unsigned shards)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.timeout = 8;
    cfg.injectionRate = 0.2;
    cfg.messageLength = 8;
    cfg.seed = 5;
    cfg.sched = sched;
    cfg.shards = shards;
    // Keep the periodic audit sweep (which builds an AuditSnapshot)
    // out of the measured window; per-event audit hooks still run.
    cfg.auditInterval = 1u << 20;
    return cfg;
}

void
expectZeroAllocSteadyState(SchedulerKind sched, unsigned shards = 1)
{
    Network net(steadyCfg(sched, shards));

    // Warm up with live traffic so every never-shrink container has
    // seen its high-water mark, then drain to quiescence.
    net.run(2000);
    net.setTrafficEnabled(false);
    Cycle guard = 0;
    while (!net.quiescent() && guard++ < 50000)
        net.tick();
    ASSERT_TRUE(net.quiescent());
    EXPECT_GT(net.stats().messagesDelivered.value(), 0u);

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    net.run(1000);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state cycle loop allocated under "
        << toString(sched) << " at shards=" << shards;
}

TEST(AllocSteady, ActiveSchedulerTicksWithoutAllocating)
{
    expectZeroAllocSteadyState(SchedulerKind::Active);
}

TEST(AllocSteady, SweepSchedulerTicksWithoutAllocating)
{
    expectZeroAllocSteadyState(SchedulerKind::Sweep);
}

TEST(AllocSteady, ShardedCycleTicksWithoutAllocating)
{
    expectZeroAllocSteadyState(SchedulerKind::Active, 2);
}

/**
 * Allocations per delivered message while traffic flows. Each
 * delivery costs its assembly node and its seen-set entry (2). This
 * configuration measures 893 allocations for 414 deliveries (2.16
 * each) at both shard counts: 428 assemblies (14 of attempts killed
 * after their head reached the receiver), 414 seen-set entries, 15
 * seen-set rehashes and, with the audit compiled in, 36 kill-token
 * registry nodes, one per source kill. A worm start or a retry must
 * add nothing: a hash node per start would put it above 3 per
 * delivery.
 */
TEST(AllocSteady, LiveTrafficAllocatesPerDeliveryOnly)
{
    constexpr double kAllocsPerDelivery = 2.2;
    for (const unsigned shards : {1u, 2u}) {
        SCOPED_TRACE(shards);
        Network net(steadyCfg(SchedulerKind::Active, shards));
        net.run(2000);  // Every reused container at its high-water mark.
        const std::uint64_t delivered_before =
            net.stats().messagesDelivered.value();
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        net.run(1000);
        const std::uint64_t allocs =
            g_allocs.load(std::memory_order_relaxed) - before;
        const std::uint64_t delivered =
            net.stats().messagesDelivered.value() - delivered_before;
        ASSERT_GT(delivered, 100u);
        EXPECT_LE(static_cast<double>(allocs),
                  kAllocsPerDelivery * static_cast<double>(delivered))
            << allocs << " allocations for " << delivered
            << " deliveries";
    }
}

TEST(AllocSteady, CounterInstrumentationWorks)
{
    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    auto* p = new int(42);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    delete p;
    EXPECT_GE(after - before, 1u);
}

} // namespace
} // namespace crnet
