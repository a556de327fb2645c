/**
 * @file
 * Parallel execution: the ShardCrew, a fixed crew of threads that runs
 * one body per index per round, and `parallelFor`, the index-space
 * loop every batch engine (`runMany`/`sweepLoads`, `runReplicated`,
 * `runCampaign`) fans out through. A sharded network's cycle is one
 * crew round per cycle; a `parallelFor` batch is one round of a crew
 * built for that call.
 *
 * Design constraints, in order:
 *   1. *Determinism.* Each work item owns its whole simulation state
 *      (a `Network` and its seeded `Rng`), so items share nothing and
 *      results written by index are bit-identical to a sequential
 *      run regardless of scheduling. Nothing here may introduce
 *      cross-item communication.
 *   2. *Index-ordered collection.* Results land in caller-owned
 *      slots addressed by item index; completion order never shows.
 *   3. *No threads when off.* `jobs <= 1` (the default) is a crew of
 *      width 1: it starts no thread and runs every item on the
 *      calling thread in index order.
 *
 * `resolveJobs` and `resolveShards` clamp the `jobs=` and `shards=`
 * config keys to [1, kMaxJobs]; `hardwareJobs()` reports the machine
 * width for observability output.
 */

#ifndef CRNET_SIM_PARALLEL_HH
#define CRNET_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace crnet {

/** Upper bound on worker threads (sanity clamp, not a target). */
inline constexpr unsigned kMaxJobs = 1024;

/** Worker threads the hardware offers (always >= 1). */
unsigned hardwareJobs();

/** A requested job count (the `jobs=` key), clamped to [1, kMaxJobs]. */
unsigned resolveJobs(unsigned requested = 0);

/**
 * A requested intra-run shard count (the `shards=` key), clamped to
 * [1, kMaxJobs]. Shard count never changes results — only how one
 * network's node array is ticked — so like `jobs` it is an execution
 * knob, not a model knob.
 */
unsigned resolveShards(unsigned requested = 0);

/**
 * A fixed crew of threads: a sharded network runs one round per
 * cycle, and parallelFor one round per batch. Index 0 runs on the
 * caller and indices 1..width-1 each on their own persistent thread,
 * so index `s` runs on the same thread every round and its shard's
 * component state stays in that core's caches.
 *
 * One generation counter releases a round and one pending counter
 * joins it. A waiter spins for a fixed time, yielding its core
 * between polls, then blocks in std::atomic::wait; each such sleep
 * adds one to the `pool.crew_sleeps` registry counter. A round
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
    /** The `pool.crew_sleeps` registry counter. */
    std::atomic<std::uint64_t>* sleeps_;
    std::vector<std::thread> threads_;
    /** Bumped by run() to release a round (and by the destructor). */
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    /** Indices of the current round still running off the caller. */
    alignas(64) std::atomic<std::uint32_t> pending_{0};
    std::atomic<bool> stopping_{false};
};

/**
 * Run `fn(i)` for every i in [0, n) as one round of a ShardCrew of
 * width min(jobs, n) (pass the result of resolveJobs). The calling
 * thread is crew index 0, and every index claims item numbers from
 * one shared counter until none is left, so uneven items balance. At
 * width 1 every item runs on the calling thread in index order.
 * Returns when all items are done. `fn` must confine its writes to
 * per-index state (e.g. `out[i] = ...`) for the deterministic-
 * collection guarantee to hold, and must not throw.
 *
 * Every item runs under a LogRunScope tagging warn()/inform() output
 * with its index, at every width, so jobs=1 and jobs=N produce
 * identical log lines for the same item. Each call also sets the
 * `pool.workers` gauge to the crew width and adds each item to
 * `pool.tasks` and its wall time to `pool.busy_nanos`
 * (docs/OBSERVABILITY.md).
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

} // namespace crnet

#endif // CRNET_SIM_PARALLEL_HH
