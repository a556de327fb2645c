/**
 * @file
 * Tests for the parallel experiment engine: job-count resolution (a
 * clamp to [1, kMaxJobs]), the ShardCrew that runs one network's
 * sharded cycle, and parallelFor, one crew round per batch: its
 * index-space coverage guarantees and its threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "src/sim/parallel.hh"

namespace crnet {
namespace {

TEST(ResolveJobs, DefaultsToSequentialWithoutEnv)
{
    EXPECT_EQ(resolveJobs(), 1u);
    EXPECT_EQ(resolveJobs(0), 1u);
}

TEST(ResolveJobs, ExplicitRequestWins)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_EQ(resolveJobs(1), 1u);
}

TEST(ResolveJobs, ClampsToMaxJobs)
{
    EXPECT_EQ(resolveJobs(kMaxJobs + 100), kMaxJobs);
}

TEST(ResolveJobs, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 257;  // Not a multiple of the width.
    // Per-index slots: each index is visited by exactly one thread, so
    // plain (non-atomic) writes are race-free iff coverage is correct.
    std::vector<int> hits(n, 0);
    parallelFor(n, 4, [&hits](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, RunsEveryItemOnceAtEveryWidth)
{
    // Every width from inline (1) to more threads than the machine may
    // have: a batch runs each of its items once, none lost or repeated.
    constexpr std::size_t n = 257;  // Not a multiple of any width.
    for (unsigned jobs = 1; jobs <= 8; ++jobs) {
        std::vector<int> hits(n, 0);
        parallelFor(n, jobs, [&hits](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " index " << i;
    }
}

TEST(ParallelFor, HandlesMoreJobsThanItems)
{
    std::vector<int> hits(3, 0);
    parallelFor(hits.size(), 64, [&hits](std::size_t i) {
        hits[i] += 1;
    });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, EmptyRangeIsANoOp)
{
    bool touched = false;
    parallelFor(0, 8, [&touched](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, SequentialWidthRunsInlineInOrder)
{
    // jobs=1 must run on the calling thread, in index order: a crew
    // of width 1 starts no thread, and benches rely on that.
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ParallelWritesLandInSubmissionSlots)
{
    // The determinism contract: result i depends only on input i,
    // regardless of which worker ran it or in what order.
    constexpr std::size_t n = 64;
    std::vector<std::size_t> out(n, 0);
    parallelFor(n, 8, [&out](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, BackToBackCallsEachRunTheirItems)
{
    // Each call builds and tears down its own crew; a call right after
    // another must neither lose items nor run the previous call's.
    for (unsigned call = 0; call < 200; ++call) {
        const std::size_t n = 1 + call % 5;
        std::vector<int> hits(n, 0);
        parallelFor(n, 1 + call % 4,
                    [&hits](std::size_t i) { hits[i] += 1; });
        ASSERT_EQ(hits, std::vector<int>(n, 1)) << "call " << call;
    }
}

TEST(ParallelFor, RunsOnAtMostJobsThreadsWithTheCallerAmongThem)
{
    // A jobs=4 batch is one crew round: the caller is index 0 and
    // three crew threads join it. No item finishes before the caller
    // has started one (bounded, so a caller that never takes part
    // fails the checks below instead of hanging), so the caller must
    // run items even when the crew threads reach the counter first.
    constexpr std::size_t n = 64;
    const auto caller = std::this_thread::get_id();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<bool> callerStarted{false};
    std::vector<std::thread::id> ranOn(n);
    std::vector<std::uint64_t> sink(n, 0);  // Keeps the uneven work.
    parallelFor(n, 4, [&](std::size_t i) {
        const auto self = std::this_thread::get_id();
        if (self == caller)
            callerStarted.store(true);
        while (!callerStarted.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        std::uint64_t spin = 0;
        for (std::uint64_t k = 0; k < (i % 7) * 2000; ++k)
            spin += k ^ i;
        sink[i] = spin;
        ranOn[i] = self;
    });
    const std::set<std::thread::id> threads(ranOn.begin(), ranOn.end());
    EXPECT_EQ(threads.count(std::thread::id{}), 0u) << "an item never ran";
    EXPECT_LE(threads.size(), 4u);
    EXPECT_EQ(threads.count(caller), 1u) << "the caller ran no item";
}

TEST(ShardCrew, EveryIndexRunsOncePerRoundOnItsOwnThread)
{
    // Uneven per-index work, so indices finish in varying order. Every
    // slot below has exactly one writer per round and is read by the
    // caller only after run() returns (or written by the caller only
    // before it), so these plain accesses are race-free — and clean
    // under ThreadSanitizer — iff the crew's release and join order
    // them.
    constexpr unsigned kWidth = 4;
    constexpr std::uint64_t kRounds = 10000;
    std::uint64_t input = 0;
    std::vector<std::uint64_t> runs(kWidth, 0);
    std::vector<std::uint64_t> output(kWidth, 0);
    std::vector<std::uint64_t> sink(kWidth, 0);  // Keeps the work.
    std::vector<std::thread::id> owner(kWidth);
    std::vector<int> moved(kWidth, 0);
    ShardCrew crew(kWidth, [&](unsigned s) {
        std::uint64_t spin = 0;
        const std::uint64_t work = ((input + s) % 5) * 40 * (s + 1);
        for (std::uint64_t i = 0; i < work; ++i)
            spin += i ^ s;
        if (runs[s] == 0)
            owner[s] = std::this_thread::get_id();
        else if (owner[s] != std::this_thread::get_id())
            ++moved[s];
        ++runs[s];
        output[s] = input * kWidth + s;
        sink[s] += spin;
    });
    for (std::uint64_t round = 0; round < kRounds; ++round) {
        input = round;
        crew.run();
        for (unsigned s = 0; s < kWidth; ++s) {
            ASSERT_EQ(runs[s], round + 1) << "index " << s;
            ASSERT_EQ(output[s], round * kWidth + s) << "index " << s;
        }
    }
    EXPECT_EQ(owner[0], std::this_thread::get_id());
    for (unsigned s = 0; s < kWidth; ++s) {
        EXPECT_EQ(moved[s], 0) << "index " << s << " changed threads";
        for (unsigned t = s + 1; t < kWidth; ++t)
            EXPECT_NE(owner[s], owner[t]);
    }
}

TEST(ShardCrew, DestructionBetweenRoundsJoinsCleanly)
{
    // Crews torn down after zero, one or a few rounds: the destructor
    // must release and join every thread, and no body may run after
    // it returns.
    std::atomic<std::uint64_t> calls{0};
    std::uint64_t expected = 0;
    for (unsigned trial = 0; trial < 200; ++trial) {
        const unsigned width = 1 + trial % 4;
        const unsigned rounds = trial % 3;
        {
            ShardCrew crew(width, [&calls](unsigned) {
                calls.fetch_add(1, std::memory_order_relaxed);
            });
            for (unsigned r = 0; r < rounds; ++r)
                crew.run();
        }
        expected += std::uint64_t{width} * rounds;
        ASSERT_EQ(calls.load(), expected) << "trial " << trial;
    }
}

TEST(ShardCrew, WidthOneRunsInline)
{
    const auto caller = std::this_thread::get_id();
    int ran = 0;
    ShardCrew crew(1, [&](unsigned s) {
        EXPECT_EQ(s, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;
    });
    crew.run();
    crew.run();
    EXPECT_EQ(ran, 2);
}

} // namespace
} // namespace crnet
