#include "src/sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string_view>

#include "src/sim/log.hh"
#include "src/sim/telemetry.hh"
#include "src/sim/walltime.hh"

namespace crnet {

namespace {

/** Busy-wait probes before a crew waiter blocks in atomic::wait. */
constexpr unsigned kCrewSpins = 1u << 12;

/** One busy-wait step: x86 `pause`, a yield elsewhere. */
inline void
spinPause()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

/**
 * Wait until `word` no longer holds `old` and return its new value
 * (acquire): a bounded spin, then std::atomic::wait.
 */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t>& word, std::uint32_t old)
{
    for (unsigned i = 0; i < kCrewSpins; ++i) {
        const std::uint32_t v = word.load(std::memory_order_acquire);
        if (v != old)
            return v;
        spinPause();
    }
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

namespace {

/**
 * `requested`, or when 0 the decimal value of environment variable
 * `var` (warning and using 1 when it is set but not a positive
 * integer), clamped to [1, kMaxJobs].
 */
unsigned
resolveCount(unsigned requested, const char* var, const char* unit)
{
    if (requested != 0)
        return std::min(requested, kMaxJobs);
    const char* env = std::getenv(var);
    if (env == nullptr || *env == '\0')
        return 1;
    // Digits only: strtoul alone would accept a sign, and "-1" wraps
    // to ULONG_MAX, which would clamp to kMaxJobs threads.
    const std::string_view text(env);
    const bool digits = std::all_of(
        text.begin(), text.end(),
        [](unsigned char c) { return std::isdigit(c); });
    const unsigned long v = digits ? std::strtoul(env, nullptr, 10) : 0;
    if (v == 0) {
        warn(var, "='", env, "' is not a positive integer; using 1 ",
             unit);
        return 1;
    }
    return static_cast<unsigned>(std::min<unsigned long>(v, kMaxJobs));
}

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    return resolveCount(requested, "CRNET_JOBS", "job");
}

unsigned
resolveShards(unsigned requested)
{
    return resolveCount(requested, "CRNET_SHARDS", "shard");
}

ThreadPool::ThreadPool(unsigned jobs)
{
    jobs = std::clamp(jobs, 1u, kMaxJobs);
    Telemetry::instance()
        .gauge("pool.workers")
        ->store(jobs, std::memory_order_relaxed);
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (!task)
        panic("ThreadPool::submit called with an empty task");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_)
            panic("ThreadPool::submit after shutdown began");
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

ShardCrew::ShardCrew(unsigned width, Body body) : body_(std::move(body))
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
        left = awaitChange(pending_, left);
    return WallTimer::nanos() - t0;
}

void
ShardCrew::threadLoop(unsigned index)
{
    // run() cannot release a second round before this thread finished
    // the first, so each generation is seen exactly once.
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(generation_, seen);
        if (stopping_.load(std::memory_order_relaxed))
            return;
        body_(index);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending_.notify_one();
    }
}

void
ThreadPool::workerLoop()
{
    // Worker-utilization telemetry: registry-owned atomics, updated
    // outside the pool lock; observability only (docs/OBSERVABILITY.md).
    std::atomic<std::uint64_t>* const tasks =
        Telemetry::instance().counter("pool.tasks");
    std::atomic<std::uint64_t>* const busy =
        Telemetry::instance().counter("pool.busy_nanos");
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping_ and drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        const std::uint64_t t0 = WallTimer::nanos();
        task();
        tasks->fetch_add(1, std::memory_order_relaxed);
        busy->fetch_add(WallTimer::nanos() - t0,
                        std::memory_order_relaxed);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

} // namespace crnet
