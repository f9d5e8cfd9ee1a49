/**
 * @file
 * Fault-tolerant sweep dispatch over the persistent work queue.
 *
 * runDispatchedSweep() consults a content-addressed ResultCache
 * (result_cache.hh) so only cache-miss points are evaluated at all,
 * partitions the misses into contiguous shard specs (sweepio/shard.hh),
 * enqueues one `confluence_sweep --points` task per shard into a
 * queue::WorkQueue, waits for their done records, and reassembles
 * outcomes in original submission order. Because per-point seeds are
 * pure functions of the point coordinates and the codec is
 * integer-only, the merged result is byte-identical to the
 * single-process run — cached, sharded, retried, or not (CI asserts
 * this on every push).
 *
 * The queue is the only execution substrate; callers differ only in
 * who supplies the workers (queue/worker.hh): threads this call starts
 * (DispatchOptions::workerThreads), daemons started over ssh, or
 * daemons already serving a shared queue. Workers store every shard's
 * outcomes in the result cache before marking its task done, so a
 * coordinator killed at any point loses nothing.
 *
 * While it waits, the coordinator keeps the queue healthy: it reclaims
 * expired leases (a dead worker's task goes back to pending), gives up
 * on a task the queue quarantined as poison (exit 6), and enforces the
 * per-attempt timeout. A failed attempt is re-enqueued as a fresh task
 * until RetryPolicy::maxAttempts; exit 3 (confluence_sweep's corrupt
 * or duplicate-point input) and kExitQuarantined fail at once, because
 * a deterministic rejection will not pass elsewhere.
 *
 * Several coordinators can share one queue. Each scopes its tasks and
 * shard files by sweepKey() — a digest of its full point list, the
 * same on every restart — so reconcileSweep() only cleans up after a
 * dead incarnation of the *same* sweep.
 *
 * Fault hook for tests/CI: every observed completion passes the
 * "queue.backend.completion" fault site, so a plan pinning a kill
 * there SIGKILLs the coordinator after the K-th completion
 * (CONFLUENCE_FAULT_PLAN="pin=queue.backend.completion@0:kill" kills
 * it at the first); "pin=dispatch.spawn@1:eio" fails the second shard
 * command a local dispatch spawns, which then retries clean.
 */

#ifndef CFL_DISPATCH_DISPATCHER_HH
#define CFL_DISPATCH_DISPATCHER_HH

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "queue/queue.hh"
#include "sim/sweep.hh"

namespace cfl::dispatch
{

class ResultCache;

/** The exit code of an attempt whose task the queue quarantined as
 *  poison: like the sweep's own "corrupt input" code 3, retrying it
 *  cannot help. */
inline constexpr int kExitQuarantined = 6;

/** A dispatched sweep that cannot complete: a shard exhausted its
 *  attempts (or failed one that retrying cannot help), or the shard
 *  results do not cover the evaluated points. */
class DispatchError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Retry behaviour of runDispatchedSweep(). */
struct RetryPolicy
{
    unsigned maxAttempts = 3; ///< total attempts per shard (>= 1)
    /** Per-attempt wall limit (0 = none). Threads the dispatch starts
     *  kill a command at the limit; for external workers the
     *  coordinator gives up on an attempt this long after enqueueing
     *  it (cancelling it if still unclaimed). */
    unsigned timeoutSec = 0;
};

/** Knobs of a dispatched sweep. */
struct DispatchOptions
{
    std::string sweepBin; ///< path to the confluence_sweep binary
    /** Shard spec/result files live here; every worker must see it.
     *  "" = <queue dir>/work/<sweepKey>. */
    std::string workDir;
    /** Shard count (0 = one per worker thread, at least one). */
    unsigned shards = 0;
    RetryPolicy retry;
    /** Threads that serve the queue for the duration of the call
     *  (0 = workers are external). */
    unsigned workerThreads = 0;
    unsigned pollMs = 50;   ///< done-record poll interval
    /** Set by the owner to abandon the wait (nullptr = never): see
     *  runDispatchedSweep. */
    const std::atomic<bool> *quit = nullptr;
};

/** Bookkeeping a dispatched sweep reports back. */
struct DispatchStats
{
    std::size_t totalPoints = 0;
    std::size_t cachedPoints = 0;    ///< served from the result cache
    std::size_t evaluatedPoints = 0; ///< computed by shard processes
    unsigned shards = 0;
    unsigned retries = 0;            ///< attempts beyond the first
    unsigned attempts = 0;           ///< total attempts, all shards
};

/** The digest that scopes a sweep inside a shared queue: a function of
 *  the full point list only, so a restarted coordinator gets the same
 *  key. */
std::string sweepKey(const std::vector<SweepPoint> &points);

/**
 * Clean up what a dead coordinator of the sweep @p key left in
 * @p queue: cancel its unclaimed tasks (this coordinator re-partitions
 * whatever the cache still misses), then wait for its claimed ones to
 * finish or expire — their workers fold completed outcomes into the
 * result cache, so a cache opened *after* this returns sees all
 * surviving work. Tasks of other sweeps are untouched.
 */
void reconcileSweep(queue::WorkQueue &queue, const std::string &key);

/**
 * Evaluate @p points through @p queue, serving cache hits from
 * @p cache (may be nullptr: cache disabled). The returned result lists
 * outcomes in the submission order of @p points and is byte-identical
 * (sweepio::encodeResult) to runTimingSweep over the same points.
 * Fully cached sweeps enqueue nothing. Throws DispatchError if any
 * shard exhausts its attempts or the shard results come up short; the
 * process, the queue and the result cache stay usable, and outcomes
 * the workers cached are kept. Once *opts.quit is true, the wait for
 * shards ends: the threads this call started kill their commands'
 * process groups and join, and the call returns an empty result at
 * once. The owner of the flag must check it before using the result.
 */
SweepResult runDispatchedSweep(const std::vector<SweepPoint> &points,
                               queue::WorkQueue &queue,
                               const DispatchOptions &opts,
                               ResultCache *cache, DispatchStats *stats);

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_DISPATCHER_HH
