#include "dispatch/dispatcher.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "dispatch/process.hh"
#include "dispatch/result_cache.hh"
#include "fault/fault.hh"
#include "queue/worker.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"
#include "sweepio/shard.hh"

namespace cfl::dispatch
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Lease and idle poll of the threads a local dispatch starts: short,
 *  so a restart after a crash waits seconds, not a minute, for the
 *  dead threads' claims to expire. */
constexpr unsigned kThreadLeaseSec = 10;
constexpr unsigned kThreadPollMs = 20;

/** One shard's progress through its attempts. */
struct Shard
{
    std::string command;
    std::string result;
    unsigned attempts = 0; ///< attempts started so far
    std::string taskId;    ///< the live attempt's task; "" = none yet
    Clock::time_point deadline{};
    bool ok = false;
    bool failed = false;   ///< out of attempts, or a no-retry exit
    int lastExit = 0;
    bool timedOut = false;
};

/**
 * Distinguishes this coordinator incarnation's task ids from those of
 * any earlier one of the same sweep: a restarted coordinator
 * regenerates the same shard commands, and must not alias a stale done
 * record.
 */
std::string
runNonce()
{
    static std::atomic<unsigned> calls{0};
    return sweepio::hexDigest(sweepio::fnv1a64(
                                  std::to_string(::getpid()) + ":" +
                                  std::to_string(::time(nullptr)) + ":" +
                                  std::to_string(calls++)))
        .substr(0, 8);
}

/** The threads a local dispatch serves its queue with; they stop (a
 *  running command is killed) and join when this goes out of scope. */
class WorkerThreads
{
  public:
    WorkerThreads(queue::WorkQueue &queue, const DispatchOptions &opts,
                  ResultCache *cache)
    {
        for (unsigned i = 0; i < opts.workerThreads; ++i) {
            queue::WorkerOptions wopts;
            wopts.owner = "local-" + std::to_string(i);
            wopts.leaseSec = kThreadLeaseSec;
            wopts.pollMs = kThreadPollMs;
            wopts.commandTimeoutSec = opts.retry.timeoutSec;
            wopts.cache = cache;
            wopts.quit = &quit_;
            threads_.emplace_back(
                [&queue, wopts] { queue::runWorker(queue, wopts); });
        }
    }

    ~WorkerThreads()
    {
        quit_ = true;
        for (std::thread &t : threads_)
            t.join();
    }

    WorkerThreads(const WorkerThreads &) = delete;
    WorkerThreads &operator=(const WorkerThreads &) = delete;

  private:
    std::atomic<bool> quit_{false};
    std::vector<std::thread> threads_;
};

/** Record how @p s's live attempt ended: done, failed for good, or
 *  due for a fresh attempt. */
void
settle(Shard &s, unsigned index, int exit_code, bool timed_out,
       const RetryPolicy &policy)
{
    s.lastExit = exit_code;
    s.timedOut = timed_out;
    s.taskId.clear();
    if (exit_code == 0 && !timed_out) {
        s.ok = true;
        return;
    }
    // The shard's input is corrupt (3) or poison (6), not the
    // infrastructure flaky: no retry.
    const bool corrupt =
        !timed_out && (exit_code == 3 || exit_code == kExitQuarantined);
    if (corrupt || s.attempts >= policy.maxAttempts) {
        s.failed = true;
        return;
    }
    cfl_warn("shard %u attempt %u failed (exit %d%s); retrying", index,
             s.attempts, exit_code, timed_out ? ", timed out" : "");
}

/** driveShards' result when DispatchOptions::quit ended the wait. */
constexpr std::size_t kQuit = static_cast<std::size_t>(-1);

/**
 * Enqueue every shard and wait until each has succeeded or one failed
 * for good. Returns the failed shard's index, shards.size(), or kQuit.
 */
std::size_t
driveShards(queue::WorkQueue &queue, std::vector<Shard> &shards,
            const std::string &id_prefix, const DispatchOptions &opts)
{
    const RetryPolicy &policy = opts.retry;
    // Threads this dispatch started enforce the timeout on the command
    // itself; only external workers need the coordinator's deadline.
    const bool deadlines =
        policy.timeoutSec != 0 && opts.workerThreads == 0;
    std::size_t open = shards.size();
    while (true) {
        if (opts.quit != nullptr && opts.quit->load())
            return kQuit;
        // Keep the queue healthy while waiting: a worker that died
        // mid-task must not strand its shard until a daemon notices.
        queue.reclaimExpired();
        for (std::size_t k = 0; k < shards.size(); ++k) {
            Shard &s = shards[k];
            if (s.ok || s.failed)
                continue;
            const unsigned index = static_cast<unsigned>(k);
            if (s.taskId.empty()) { // start the next attempt
                ++s.attempts;
                s.taskId = id_prefix + "s" + std::to_string(k) + "-a" +
                           std::to_string(s.attempts);
                s.deadline =
                    Clock::now() + std::chrono::seconds(policy.timeoutSec);
                sweepio::TaskRecord task;
                task.id = s.taskId;
                task.command = s.command;
                task.result = s.result;
                queue.enqueue(task);
            } else if (const auto done = queue.doneRecord(s.taskId)) {
                settle(s, index, static_cast<int>(done->exitCode), false,
                       policy);
                // The coordinator-crash injection point: a fault plan
                // pinning a kill here dies after the K-th completion.
                fault::checkpoint("queue.backend.completion");
            } else if (queue.isQuarantined(s.taskId)) {
                // It kept killing workers: it will never complete, and
                // no other worker should have to die proving it.
                cfl_warn("task \"%s\" was quarantined as poison; giving "
                         "up on it", s.taskId.c_str());
                settle(s, index, kExitQuarantined, false, policy);
            } else if (deadlines && Clock::now() >= s.deadline) {
                // A claimed task cannot be stopped remotely; its late
                // done record is simply never read.
                queue.cancelTask(s.taskId);
                settle(s, index, 128 + SIGKILL, true, policy);
            }
            if (s.failed)
                return k;
            if (s.ok)
                --open;
        }
        if (open == 0)
            return shards.size();
        std::this_thread::sleep_for(std::chrono::milliseconds(opts.pollMs));
    }
}

} // namespace

std::string
sweepKey(const std::vector<SweepPoint> &points)
{
    std::string text;
    for (const SweepPoint &p : points) {
        text += sweepio::encodePoint(p);
        text += '\n';
    }
    return sweepio::hexDigest(sweepio::fnv1a64(text));
}

void
reconcileSweep(queue::WorkQueue &queue, const std::string &key)
{
    const std::string prefix = key + "-";
    std::size_t cancelled = queue.cancelPending(prefix);
    while (true) {
        // Reclaimed expired tasks are cancelled too, not rerun: their
        // points are simply cache misses for the fresh dispatch.
        queue.reclaimExpired();
        cancelled += queue.cancelPending(prefix);
        const std::size_t claimed = queue.claimedCount(prefix);
        if (claimed == 0)
            break;
        std::fprintf(stderr,
                     "reconcile: waiting for %zu in-flight task(s) from "
                     "a previous coordinator\n", claimed);
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
    if (cancelled != 0)
        std::fprintf(stderr,
                     "reconcile: cancelled %zu stale pending task(s)\n",
                     cancelled);
}

SweepResult
runDispatchedSweep(const std::vector<SweepPoint> &points,
                   queue::WorkQueue &queue, const DispatchOptions &opts,
                   ResultCache *cache, DispatchStats *stats)
{
    cfl_assert(opts.retry.maxAttempts >= 1, "maxAttempts must be >= 1");
    cfl_assert(opts.pollMs >= 1, "poll interval must be positive");
    DispatchStats local;
    DispatchStats &st = stats != nullptr ? *stats : local;
    st = DispatchStats{};
    st.totalPoints = points.size();

    // Phase 1: serve what the cache already holds. cached[i] is the
    // stored outcome of points[i], or nullptr if it must be evaluated.
    std::vector<const SweepOutcome *> cached(points.size(), nullptr);
    std::vector<SweepPoint> misses;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::uint64_t seed =
            sweepPointSeed(points[i].kind, points[i].workload);
        if (cache != nullptr)
            cached[i] = cache->lookup(points[i], seed);
        if (cached[i] == nullptr)
            misses.push_back(points[i]);
    }
    st.cachedPoints = points.size() - misses.size();

    // Phase 2: shard the misses, enqueue one task per shard, and wait.
    SweepResult fresh;
    if (!misses.empty()) {
        if (opts.sweepBin.empty())
            cfl_fatal("dispatch needs the confluence_sweep binary path");
        const unsigned nshards = static_cast<unsigned>(std::min<std::size_t>(
            opts.shards != 0 ? opts.shards
                             : std::max(1u, opts.workerThreads),
            misses.size()));
        st.shards = nshards;

        const std::string key = sweepKey(points);
        const std::string work_dir = opts.workDir.empty()
                                         ? queue.dir() + "/work/" + key
                                         : opts.workDir;
        std::error_code ec;
        std::filesystem::create_directories(work_dir, ec);
        if (ec)
            cfl_fatal("cannot create work directory \"%s\": %s",
                      work_dir.c_str(), ec.message().c_str());

        std::vector<Shard> shards(nshards);
        for (unsigned k = 0; k < nshards; ++k) {
            const std::string stem = work_dir + "/shard" + std::to_string(k);
            const std::string spec_path = stem + ".spec.jsonl";
            Shard &s = shards[k];
            s.result = stem + ".result.jsonl";
            sweepio::writePoints(spec_path,
                                 sweepio::shardPoints(misses, k, nshards));
            std::remove(s.result.c_str()); // no stale result can leak
            s.command = shellQuote(opts.sweepBin) + " --points " +
                        shellQuote(spec_path) + " --out " +
                        shellQuote(s.result);
        }

        std::size_t failed;
        {
            WorkerThreads threads(queue, opts, cache);
            failed = driveShards(queue, shards, key + "-" + runNonce() + "-",
                                 opts);
        }
        if (failed == kQuit)
            return {}; // the threads killed their commands' groups
        for (const Shard &s : shards) {
            st.attempts += s.attempts;
            st.retries += s.attempts == 0 ? 0 : s.attempts - 1;
        }
        if (failed != shards.size()) {
            const Shard &s = shards[failed];
            throw DispatchError(detail::formatString(
                "shard %zu failed after %u attempt(s) (last exit %d%s)",
                failed, s.attempts, s.lastExit,
                s.timedOut ? ", timed out" : ""));
        }

        // Merge shard results in shard order: shards are contiguous
        // slices of the miss list, so this reproduces its order. The
        // up-front reserve keeps the per-shard merge() calls from
        // reallocating the accumulated vector once per shard.
        fresh.points.reserve(misses.size());
        for (const Shard &s : shards)
            fresh.merge(sweepio::readResult(s.result));
        if (fresh.points.size() != misses.size())
            throw DispatchError(detail::formatString(
                "shard results hold %zu points, expected %zu",
                fresh.points.size(), misses.size()));
        st.evaluatedPoints = fresh.points.size();
    }

    // Phase 3: reassemble in original submission order — cached and
    // fresh outcomes interleave exactly as the unsharded sweep would
    // have produced them.
    SweepResult result;
    result.points.reserve(points.size());
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepOutcome &o = cached[i] != nullptr
                                    ? *cached[i]
                                    : fresh.points[cursor++];
        cfl_assert(o.point.kind == points[i].kind &&
                       o.point.workload == points[i].workload,
                   "outcome %zu does not match its submitted point", i);
        result.points.push_back(o);
    }
    cfl_assert(cursor == fresh.points.size(),
               "evaluated outcomes left over after reassembly");
    return result;
}

} // namespace cfl::dispatch
