#include "src/sim/parallel.hh"

#include <algorithm>
#include <atomic>

#include "src/sim/log.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/walltime.hh"

namespace crnet {

namespace {

/**
 * How long a crew waiter spins before it blocks in atomic::wait. The
 * waits it should outlast are a sharded cycle's serial steps and the
 * lag of the slowest shard: on a 64x64 CR torus (4 shards, 4-vCPU
 * Xeon) generate() between the two rounds takes ~45 us, the merge and
 * the next cycle's serial step ~3 us, and the ticking thread waits up
 * to ~300 us per cycle for the slowest shard. At 500 us the crew
 * there sleeps 0-0.14 times per round, against 3.1-3.5 of its 4 waits
 * per round under the old spin of 4,096 `pause`s (~65 us on that
 * host; `pause` latency varies about tenfold across x86 generations,
 * so the budget is a time, not a count).
 */
constexpr std::uint64_t kCrewSpinNanos = 500'000;

/**
 * Wait until `word` no longer holds `old` and return its new value
 * (acquire): spin for kCrewSpinNanos, then block in std::atomic::wait
 * and count the sleep into `sleeps`. The spin yields the core between
 * polls, so on an oversubscribed host the threads it waits for get to
 * run; on a quiet one each yield returns at once.
 */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t>& word, std::uint32_t old,
            std::atomic<std::uint64_t>& sleeps)
{
    const std::uint64_t t0 = WallTimer::nanos();
    do {
        const std::uint32_t v = word.load(std::memory_order_acquire);
        if (v != old)
            return v;
        std::this_thread::yield();
    } while (WallTimer::nanos() - t0 < kCrewSpinNanos);
    sleeps.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
        word.wait(old, std::memory_order_acquire);
        const std::uint32_t v = word.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

} // namespace

unsigned
hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
resolveJobs(unsigned requested)
{
    return std::clamp(requested, 1u, kMaxJobs);
}

unsigned
resolveShards(unsigned requested)
{
    return std::clamp(requested, 1u, kMaxJobs);
}

ShardCrew::ShardCrew(unsigned width, Body body)
    : body_(std::move(body)),
      sleeps_(Telemetry::instance().counter("pool.crew_sleeps"))
{
    width = std::clamp(width, 1u, kMaxJobs);
    threads_.reserve(width - 1);
    try {
        for (unsigned i = 1; i < width; ++i)
            threads_.emplace_back([this, i] { threadLoop(i); });
    } catch (...) {
        stopAndJoin();  // A thread that failed to start: join the rest.
        throw;
    }
}

ShardCrew::~ShardCrew()
{
    stopAndJoin();
}

void
ShardCrew::stopAndJoin()
{
    stopping_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

std::uint64_t
ShardCrew::run()
{
    // Set before the release below, so every thread that sees the new
    // generation also sees its round's count.
    pending_.store(static_cast<std::uint32_t>(threads_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    body_(0);
    const std::uint64_t t0 = WallTimer::nanos();
    for (std::uint32_t left = pending_.load(std::memory_order_acquire);
         left != 0;)
        left = awaitChange(pending_, left, *sleeps_);
    return WallTimer::nanos() - t0;
}

void
ShardCrew::threadLoop(unsigned index)
{
    // run() cannot release a second round before this thread finished
    // the first, so each generation is seen exactly once.
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(generation_, seen, *sleeps_);
        if (stopping_.load(std::memory_order_relaxed))
            return;
        body_(index);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending_.notify_one();
    }
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;
    const auto width = static_cast<unsigned>(std::clamp<std::size_t>(
        std::min<std::size_t>(jobs, n), 1, kMaxJobs));
    // Worker-utilization telemetry: registry-owned atomics,
    // observability only (docs/OBSERVABILITY.md).
    Telemetry& telemetry = Telemetry::instance();
    telemetry.gauge("pool.workers")
        ->store(width, std::memory_order_relaxed);
    std::atomic<std::uint64_t>* const tasks =
        telemetry.counter("pool.tasks");
    std::atomic<std::uint64_t>* const busy =
        telemetry.counter("pool.busy_nanos");
    std::atomic<std::size_t> next{0};
    ShardCrew crew(width, [&](unsigned) {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            LogRunScope scope(static_cast<std::int64_t>(i));
            const std::uint64_t t0 = WallTimer::nanos();
            fn(i);
            tasks->fetch_add(1, std::memory_order_relaxed);
            busy->fetch_add(WallTimer::nanos() - t0,
                            std::memory_order_relaxed);
        }
    });
    crew.run();
}

} // namespace crnet
