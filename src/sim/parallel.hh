/**
 * @file
 * Parallel execution: a small fixed-size thread pool plus an
 * index-space `parallelFor` used by every batch engine
 * (`runMany`/`sweepLoads`, `runReplicated`, `runCampaign`), and the
 * ShardCrew that runs one network's sharded cycle.
 *
 * Design constraints, in order:
 *   1. *Determinism.* Each work item owns its whole simulation state
 *      (a `Network` and its seeded `Rng`), so items share nothing and
 *      results written by index are bit-identical to a sequential
 *      run regardless of scheduling. Nothing here may introduce
 *      cross-item communication.
 *   2. *Submission-ordered collection.* Results land in caller-owned
 *      slots addressed by item index; completion order never shows.
 *   3. *Zero cost when off.* `jobs <= 1` (the default) runs inline on
 *      the calling thread: no threads, no locks, no behavior change.
 *
 * Job-count resolution (`resolveJobs`): an explicit request (the
 * `jobs=` config key) wins; otherwise the `CRNET_JOBS` environment
 * variable; otherwise 1. `hardwareJobs()` reports the machine width
 * for observability output.
 */

#ifndef CRNET_SIM_PARALLEL_HH
#define CRNET_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/log.hh"

namespace crnet {

/** Upper bound on worker threads (sanity clamp, not a target). */
inline constexpr unsigned kMaxJobs = 1024;

/** Worker threads the hardware offers (always >= 1). */
unsigned hardwareJobs();

/**
 * Resolve a requested job count: `requested` > 0 wins, else the
 * CRNET_JOBS environment variable, else 1. Clamped to [1, kMaxJobs].
 */
unsigned resolveJobs(unsigned requested = 0);

/**
 * Resolve a requested intra-run shard count (the `shards=` config
 * key): `requested` > 0 wins, else the CRNET_SHARDS environment
 * variable, else 1 (unsharded). Clamped to [1, kMaxJobs]. Shard
 * count never changes results — only how one network's node array is
 * ticked — so like `jobs` it is an execution knob, not a model knob.
 */
unsigned resolveShards(unsigned requested = 0);

/**
 * Fixed-size pool of worker threads draining one task queue.
 *
 * Tasks must not throw (engine code reports failure via panic/fatal,
 * which abort the process); an escaping exception would terminate.
 */
class ThreadPool
{
  public:
    /** Spawn `jobs` workers (clamped to [1, kMaxJobs]). */
    explicit ThreadPool(unsigned jobs);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned jobs() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;  //!< Queued + currently running.
    bool stopping_ = false;
};

/**
 * A fixed crew of threads for one network's sharded cycle. Index 0
 * runs on the caller and indices 1..width-1 each on their own
 * persistent thread, so index `s` runs on the same thread every round
 * and its shard's component state stays in that core's caches.
 *
 * One generation counter releases a round and one pending counter
 * joins it. A waiter spins a bounded number of times (x86 `pause`, a
 * yield elsewhere), then blocks in std::atomic::wait, so an
 * oversubscribed machine does not burn whole time slices. A round
 * allocates nothing. The body must not throw (engine code reports
 * failure via panic/fatal, which abort the process).
 */
class ShardCrew
{
  public:
    using Body = std::function<void(unsigned)>;

    /**
     * Start `width - 1` threads (width clamped to [1, kMaxJobs]) that
     * run `body` for their index once per round.
     */
    ShardCrew(unsigned width, Body body);

    /** Releases and joins every thread (call between rounds). */
    ~ShardCrew();

    ShardCrew(const ShardCrew&) = delete;
    ShardCrew& operator=(const ShardCrew&) = delete;
    ShardCrew(ShardCrew&&) = delete;
    ShardCrew& operator=(ShardCrew&&) = delete;

    /**
     * One round: `body(i)` for every i in [0, width), `body(0)` on the
     * calling thread. Returns once every index has finished; all their
     * writes are then visible to the caller, and the caller's writes
     * before the call were visible to every index. The result is the
     * nanoseconds the caller waited for the others after its own index
     * (observability only).
     */
    std::uint64_t run();

  private:
    void threadLoop(unsigned index);
    /** Release every thread with stopping_ set and join it. */
    void stopAndJoin();

    Body body_;
    std::vector<std::thread> threads_;
    /** Bumped by run() to release a round (and by the destructor). */
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    /** Indices of the current round still running off the caller. */
    alignas(64) std::atomic<std::uint32_t> pending_{0};
    std::atomic<bool> stopping_{false};
};

/**
 * Run `fn(i)` for every i in [0, n) on up to `jobs` worker threads
 * (pass the result of resolveJobs). With `jobs <= 1` or `n <= 1` the
 * loop runs inline on the calling thread. Returns when all items are
 * done. `fn` must confine its writes to per-index state (e.g.
 * `out[i] = ...`) for the deterministic-collection guarantee to hold.
 *
 * Every item runs under a LogRunScope tagging warn()/inform() output
 * with its index — in the inline path too, so jobs=1 and jobs=N
 * produce identical log lines for the same item.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn&& fn)
{
    if (n == 0)
        return;
    const auto width = static_cast<unsigned>(
        std::min<std::size_t>(jobs, n));
    if (width <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            LogRunScope scope(static_cast<std::int64_t>(i));
            fn(i);
        }
        return;
    }
    ThreadPool pool(width);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&fn, i] {
            LogRunScope scope(static_cast<std::int64_t>(i));
            fn(i);
        });
    }
    pool.wait();
}

} // namespace crnet

#endif // CRNET_SIM_PARALLEL_HH
