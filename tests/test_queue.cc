/**
 * @file Tests for the persistent work queue: claim mutual exclusion
 * under racing threads (the lease + atomic-rename protocol), FIFO
 * ordering, lease-expiry reclamation on a fake clock, torn-append log
 * recovery, double-completion idempotence, a dispatched sweep retried
 * by external worker loops, and the headline crash contracts — a
 * coordinator killed mid-dispatch and restarted merges a result
 * byte-identical to the single-process run with no shard evaluated
 * twice, and a restart leaves another sweep sharing the queue
 * untouched.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/dispatcher.hh"
#include "dispatch/process.hh"
#include "dispatch/result_cache.hh"
#include "queue/queue.hh"
#include "queue/worker.hh"
#include "shard_test_util.hh"
#include "sweepio/codec.hh"
#include "sweepio/queue_codec.hh"
#include "sweepio/shard.hh"

using namespace cfl;
using namespace cfl::queue;
using namespace cfl::test;
namespace fs = std::filesystem;

namespace
{

/** Fresh queue directory for one test. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "queue_" + name;
    fs::remove_all(dir);
    return dir;
}

sweepio::TaskRecord
makeTask(const std::string &id, const std::string &command = "true",
         const std::string &result = "")
{
    sweepio::TaskRecord task;
    task.id = id;
    task.command = command;
    task.result = result;
    return task;
}

/** Settable wall clock shared by every queue in a test. */
std::atomic<std::uint64_t> g_fakeNowMs{0};

std::uint64_t
fakeNow()
{
    return g_fakeNowMs.load();
}

/** The library worker loop on a thread of its own, standing in for a
 *  confluence_worker daemon; stops (killing any running command) when
 *  destroyed. */
class WorkerThread
{
  public:
    WorkerThread(WorkQueue &queue, const std::string &owner,
                 dispatch::ResultCache *cache = nullptr)
    {
        WorkerOptions opts;
        opts.owner = owner;
        opts.pollMs = 2;
        opts.cache = cache;
        opts.quit = &quit_;
        thread_ = std::thread([&queue, opts] { runWorker(queue, opts); });
    }

    ~WorkerThread()
    {
        quit_ = true;
        thread_.join();
    }

    WorkerThread(const WorkerThread &) = delete;
    WorkerThread &operator=(const WorkerThread &) = delete;

  private:
    std::atomic<bool> quit_{false};
    std::thread thread_;
};

} // namespace

// ---------------------------------------------------------------------------
// Lifecycle basics
// ---------------------------------------------------------------------------

TEST(WorkQueue, ClaimsAreFifoAndLifecycleRoundTrips)
{
    WorkQueue queue(freshDir("fifo"));
    EXPECT_EQ(queue.claim("w", 60), std::nullopt);

    queue.enqueue(makeTask("task-a", "run a", "a.out"));
    queue.enqueue(makeTask("task-b", "run b"));
    EXPECT_EQ(queue.pendingCount(), 2u);

    auto first = queue.claim("w", 60);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->task.id, "task-a"); // enqueue order, not id order
    EXPECT_EQ(first->task.command, "run a");
    EXPECT_EQ(first->task.result, "a.out");
    EXPECT_EQ(queue.pendingCount(), 1u);
    EXPECT_EQ(queue.claimedCount(), 1u);

    EXPECT_EQ(queue.doneRecord("task-a"), std::nullopt);
    queue.complete(*first, 0);
    const auto done = queue.doneRecord("task-a");
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->exitCode, 0u);
    EXPECT_EQ(done->owner, "w");
    EXPECT_EQ(queue.claimedCount(), 0u);

    auto second = queue.claim("w", 60);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->task.id, "task-b");
    queue.complete(*second, 7);
    EXPECT_EQ(queue.doneRecord("task-b")->exitCode, 7u);

    // The audit log remembers the whole story.
    std::size_t enqueues = 0, dones = 0;
    for (const sweepio::QueueLogRecord &record : queue.readLog()) {
        enqueues += record.op == "enqueue";
        dones += record.op == "done";
    }
    EXPECT_EQ(enqueues, 2u);
    EXPECT_EQ(dones, 2u);
}

TEST(WorkQueue, CancelPendingWithdrawsOnlyUnclaimedTasks)
{
    WorkQueue queue(freshDir("cancel"));
    queue.enqueue(makeTask("keep"));
    queue.enqueue(makeTask("drop1"));
    queue.enqueue(makeTask("drop2"));

    auto claim = queue.claim("w", 60);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "keep");

    EXPECT_EQ(queue.cancelPending(), 2u);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 1u); // the claimed task survives
    EXPECT_EQ(queue.claim("w2", 60), std::nullopt);
    queue.complete(*claim, 0);
}

TEST(WorkQueue, StopMarkerIsSharedAcrossInstances)
{
    const std::string dir = freshDir("stop");
    WorkQueue coordinator(dir);
    WorkQueue worker(dir); // a second process in real life
    EXPECT_FALSE(worker.stopRequested());
    coordinator.requestStop();
    EXPECT_TRUE(worker.stopRequested());
    // A new dispatch into the same directory withdraws the request, so
    // freshly started workers do not drain and exit mid-run.
    coordinator.clearStop();
    EXPECT_FALSE(worker.stopRequested());
}

// ---------------------------------------------------------------------------
// Mutual exclusion: 8 racing threads, every task claimed exactly once
// ---------------------------------------------------------------------------

TEST(WorkQueue, AtomicClaimIsMutuallyExclusiveUnderRacingThreads)
{
    const std::string dir = freshDir("race");
    WorkQueue setup(dir);
    constexpr unsigned kTasks = 24, kThreads = 8;
    for (unsigned i = 0; i < kTasks; ++i)
        setup.enqueue(makeTask("task-" + std::to_string(i)));

    std::mutex mutex;
    std::map<std::string, unsigned> claims; // id -> times claimed
    std::atomic<unsigned> completed{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread opens the directory itself, like a separate
            // worker process would.
            WorkQueue queue(dir);
            const std::string owner = "w" + std::to_string(t);
            while (completed.load() < kTasks) {
                auto claim = queue.claim(owner, 60);
                if (!claim) {
                    std::this_thread::yield();
                    continue;
                }
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++claims[claim->task.id];
                }
                queue.complete(*claim, 0);
                ++completed;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Exactly one claim per task: no double claims, none lost.
    EXPECT_EQ(claims.size(), kTasks);
    for (const auto &[id, count] : claims)
        EXPECT_EQ(count, 1u) << id << " was claimed " << count
                             << " times";
    EXPECT_EQ(setup.pendingCount(), 0u);
    EXPECT_EQ(setup.claimedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Lease expiry and reclamation
// ---------------------------------------------------------------------------

TEST(WorkQueue, ExpiredLeaseIsReclaimedAndReclaimable)
{
    const std::string dir = freshDir("lease");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("slow-task"));
    auto dead = queue.claim("dead-worker", 10); // 10s lease
    ASSERT_TRUE(dead.has_value());

    // While the lease is live, nothing is claimable or reclaimable.
    EXPECT_EQ(queue.claim("other", 10), std::nullopt);
    EXPECT_EQ(queue.reclaimExpired(), 0u);

    // Heartbeats push the deadline out.
    g_fakeNowMs += 8'000;
    EXPECT_TRUE(queue.heartbeat(*dead, 10));
    g_fakeNowMs += 8'000; // past the original deadline, inside renewed
    EXPECT_EQ(queue.reclaimExpired(), 0u);

    // The worker dies: no more heartbeats, the lease runs out.
    g_fakeNowMs += 11'000;
    EXPECT_EQ(queue.reclaimExpired(), 1u);
    EXPECT_EQ(queue.pendingCount(), 1u);

    auto retry = queue.claim("healthy-worker", 10);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->task.id, "slow-task");
    // The dead worker's heartbeat now reports the lease as lost.
    EXPECT_FALSE(queue.heartbeat(*dead, 10));
    queue.complete(*retry, 0);
    EXPECT_EQ(queue.doneRecord("slow-task")->owner, "healthy-worker");
}

TEST(WorkQueue, HeartbeatsKeepLongTaskAliveFarPastOriginalLease)
{
    // Regression guard for the worker's wall-clock heartbeat loop: a
    // task whose runtime is many multiples of the lease must never be
    // reclaimed while its worker heartbeats on schedule. This is the
    // confluence_worker cadence (heartbeat at half the lease) on a
    // fake clock, run out to 10x the original deadline.
    const std::string dir = freshDir("longtask");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("long-task"));
    auto claim = queue.claim("steady-worker", 10); // 10s lease
    ASSERT_TRUE(claim.has_value());
    const std::uint64_t original_deadline = claim->deadlineMs;

    for (unsigned beat = 0; beat < 20; ++beat) {
        g_fakeNowMs += 5'000; // half the lease per heartbeat
        EXPECT_EQ(queue.reclaimExpired(), 0u)
            << "reclaimed under a live heartbeat, beat " << beat;
        EXPECT_EQ(queue.claim("thief", 10), std::nullopt)
            << "claimable under a live heartbeat, beat " << beat;
        ASSERT_TRUE(queue.heartbeat(*claim, 10))
            << "lease lost despite on-schedule heartbeats, beat "
            << beat;
    }
    // 100s of fake time have passed on a 10s lease.
    EXPECT_GT(g_fakeNowMs, original_deadline + 80'000);
    EXPECT_GT(claim->deadlineMs, original_deadline);
    EXPECT_EQ(queue.claimedCount(), 1u);
    EXPECT_EQ(queue.pendingCount(), 0u);

    queue.complete(*claim, 0);
    EXPECT_EQ(queue.doneRecord("long-task")->owner, "steady-worker");
    EXPECT_EQ(queue.claimedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Double completion is a no-op
// ---------------------------------------------------------------------------

TEST(WorkQueue, SecondCompletionOfATaskIsANoOp)
{
    const std::string dir = freshDir("twice");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("dup-task"));
    auto stale = queue.claim("slow-worker", 10);
    ASSERT_TRUE(stale.has_value());

    // The slow worker stalls past its lease; the task is reclaimed and
    // re-run by a healthy worker, which completes first.
    g_fakeNowMs += 11'000;
    ASSERT_EQ(queue.reclaimExpired(), 1u);
    auto fresh = queue.claim("fast-worker", 10);
    ASSERT_TRUE(fresh.has_value());
    queue.complete(*fresh, 0);

    // Now the stale worker finally finishes the same task: nothing
    // changes — the first completion record stands, and the fast
    // worker's live state is untouched.
    queue.complete(*stale, 0);
    const auto done = queue.doneRecord("dup-task");
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->owner, "fast-worker");

    std::size_t done_records = 0;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        done_records += record.op == "done";
    EXPECT_EQ(done_records, 1u);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 0u);

    // And completing the very same claim twice is equally harmless.
    queue.complete(*fresh, 0);
    EXPECT_EQ(queue.doneRecord("dup-task")->owner, "fast-worker");
}

TEST(WorkQueue, TaskCompletedAfterReclaimIsRetiredNotRerun)
{
    const std::string dir = freshDir("late");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("late-task"));
    auto stale = queue.claim("slow-worker", 10);
    ASSERT_TRUE(stale.has_value());
    g_fakeNowMs += 11'000;
    ASSERT_EQ(queue.reclaimExpired(), 1u); // back to pending

    // The slow worker finishes *before* anyone re-claims: the task is
    // now pending AND done. A claimer must retire it, not run it.
    queue.complete(*stale, 0);
    EXPECT_EQ(queue.pendingCount(), 1u);
    EXPECT_EQ(queue.claim("other-worker", 10), std::nullopt);
    EXPECT_EQ(queue.pendingCount(), 0u); // retired by the claim scan
    EXPECT_EQ(queue.doneRecord("late-task")->owner, "slow-worker");
}

// ---------------------------------------------------------------------------
// Claim order and task file names
// ---------------------------------------------------------------------------

TEST(WorkQueue, ClaimOrderIsDeterministicAcrossInstances)
{
    // Claims are FIFO by enqueue seq, a pure function of the directory
    // state: a *fresh* instance (a separate worker process in real life)
    // claims in the order another instance enqueued, and a restarted
    // writer's tasks queue up behind the survivors. The ids sort in a
    // different order on purpose.
    const std::string dir = freshDir("deterministic");
    {
        WorkQueue writer(dir);
        for (const char *id : {"z0", "a0", "m0"})
            writer.enqueue(makeTask(id));
    }
    WorkQueue writer(dir);
    writer.enqueue(makeTask("b1"));
    writer.enqueue(makeTask("a1"));

    WorkQueue observer(dir);
    const std::vector<std::string> expected = {"z0", "a0", "m0", "b1",
                                               "a1"};
    for (std::size_t i = 0; i < expected.size(); ++i) {
        WorkQueue &claimer = i % 2 == 0 ? observer : writer;
        auto claim = claimer.claim("probe", 60);
        ASSERT_TRUE(claim.has_value());
        EXPECT_EQ(claim->task.id, expected[i]);
        claimer.complete(*claim, 0);
    }
    EXPECT_EQ(observer.claim("probe", 60), std::nullopt);
}

TEST(WorkQueue, ServiceEraTaskFilesAreForeign)
{
    // What the queue wrote before claims became plain FIFO: task
    // files named "p<sort key>-<seq>-<submitter>-<id>.task". Such a
    // name is not a task name any more, so the file is ignored like any
    // stray file: never claimed, counted or cancelled, left in place.
    const std::string dir = freshDir("service_era");
    {
        WorkQueue layout(dir); // creates the directory skeleton
    }
    const std::string old_task =
        dir + "/pending/p10000-000000000000-default-x.task";
    {
        std::ofstream task(old_task);
        task << "{\"id\":\"x\",\"seq\":0,\"command\":\"true\","
                "\"result\":\"\"}\n";
    }

    WorkQueue queue(dir);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_FALSE(queue.claim("w", 60).has_value());
    EXPECT_EQ(queue.cancelPending(), 0u);
    EXPECT_FALSE(queue.cancelTask("x"));

    queue.enqueue(makeTask("new-task"));
    auto first = queue.claim("w", 60);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->task.id, "new-task");
    queue.complete(*first, 0);
    EXPECT_FALSE(queue.claim("w", 60).has_value());
    EXPECT_FALSE(queue.doneRecord("x").has_value());
    EXPECT_TRUE(fs::exists(old_task));
}

// ---------------------------------------------------------------------------
// Torn-append recovery
// ---------------------------------------------------------------------------

TEST(WorkQueue, TornLogLinesAreSkippedAndSequencingSurvives)
{
    const std::string dir = freshDir("torn");
    {
        WorkQueue queue(dir);
        queue.enqueue(makeTask("t0"));
        queue.enqueue(makeTask("t1"));
    }
    {
        // A process killed mid-append leaves a torn trailing line.
        std::ofstream log(dir + "/tasks.jsonl", std::ios::app);
        log << "{\"op\":\"enqueue\",\"task\":{\"id\":\"t2\",\"se";
    }

    WorkQueue back(dir);
    std::size_t enqueues = 0;
    for (const sweepio::QueueLogRecord &record : back.readLog())
        enqueues += record.op == "enqueue";
    EXPECT_EQ(enqueues, 2u); // the torn record is skipped, not fatal

    // Sequencing resumes after the surviving records, so new tasks
    // sort after the old ones in claim order.
    const sweepio::TaskRecord stored = back.enqueue(makeTask("t3"));
    EXPECT_EQ(stored.seq, 2u);
    auto claim = back.claim("w", 60);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "t0");
}

// ---------------------------------------------------------------------------
// Dispatched sweeps served by external worker loops
// ---------------------------------------------------------------------------

TEST(QueueDispatch, RetriesAFailedShardThroughAFreshTask)
{
    const std::string dir = freshDir("dispatch_retry");
    WorkQueue queue(dir);
    const std::vector<SweepPoint> points = tinyGrid();

    dispatch::DispatchOptions opts;
    // A sweep stand-in whose first attempt at each shard fails.
    opts.sweepBin = scriptedSweep(
        dir, "[ -e \"$4.failed\" ] || { touch \"$4.failed\"; exit 9; }");
    opts.shards = 2;
    opts.pollMs = 5;
    dispatch::DispatchStats stats;
    SweepResult merged;
    {
        WorkerThread w1(queue, "w1"), w2(queue, "w2");
        merged = dispatch::runDispatchedSweep(points, queue, opts, nullptr,
                                              &stats);
    }
    EXPECT_EQ(sweepio::encodeResult(merged), referenceBytes(points));
    EXPECT_EQ(stats.attempts, 4u);
    EXPECT_EQ(stats.retries, 2u);
    // Both failed attempts left their done records behind.
    std::size_t failed = 0;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        failed += record.op == "done" && record.done.exitCode == 9;
    EXPECT_EQ(failed, 2u);
}

// ---------------------------------------------------------------------------
// The headline contract: coordinator killed mid-dispatch, restarted,
// byte-identical merge, no shard evaluated twice.
// ---------------------------------------------------------------------------

TEST(QueueDispatch, KilledCoordinatorResumesByteIdenticalWithoutRework)
{
    const std::string dir = freshDir("resume");
    const std::string store = dir + "-cache.jsonl";
    fs::remove(store);
    const std::vector<SweepPoint> points = tinyGrid();
    const std::string key = dispatch::sweepKey(points);
    const std::string work = dir + "/work/" + key;

    // --- Coordinator #1, killed mid-dispatch -------------------------
    // Reconstruct exactly what a SIGKILLed coordinator leaves behind:
    // both shard tasks enqueued under the sweep's key, the first
    // completed by a worker (its outcomes already durable in the shared
    // cache), the second still pending, and no merged output written.
    WorkQueue queue(dir);
    fs::create_directories(work);
    for (unsigned shard = 0; shard < 2; ++shard) {
        const std::string stem = work + "/shard" + std::to_string(shard);
        sweepio::writePoints(stem + ".spec.jsonl",
                             sweepio::shardPoints(points, shard, 2));
        sweepio::TaskRecord task;
        task.id = key + "-deadbeef-s" + std::to_string(shard) + "-a1";
        task.command = dispatch::shellQuote(CFL_SWEEP_BIN) + " --points " +
                       dispatch::shellQuote(stem + ".spec.jsonl") +
                       " --out " +
                       dispatch::shellQuote(stem + ".result.jsonl");
        task.result = stem + ".result.jsonl";
        queue.enqueue(task);
    }
    {
        dispatch::ResultCache cache(store, "v1");
        WorkerOptions one;
        one.owner = "doomed-run-worker";
        one.maxTasks = 1;
        one.cache = &cache;
        ASSERT_EQ(runWorker(queue, one), 1u); // shard 0 completes...
    }
    ASSERT_EQ(queue.pendingCount(), 1u); // ...shard 1 never runs

    // --- Coordinator #2: reconcile, then dispatch the remainder ------
    dispatch::reconcileSweep(queue, key); // cancels the stale task
    ASSERT_EQ(queue.pendingCount(), 0u);
    // The cache opens *after* reconcile, so it sees the dead run's
    // completed shard; the workers share it with the coordinator.
    dispatch::ResultCache cache(store, "v1");
    dispatch::DispatchOptions opts;
    opts.sweepBin = CFL_SWEEP_BIN;
    opts.shards = 2;
    opts.pollMs = 5;
    dispatch::DispatchStats stats;
    SweepResult merged;
    {
        WorkerThread worker(queue, "w1", &cache);
        merged = dispatch::runDispatchedSweep(points, queue, opts, &cache,
                                              &stats);
    }

    // Byte-identical to the single-process run...
    EXPECT_EQ(sweepio::encodeResult(merged), referenceBytes(points));
    // ...with the dead coordinator's work served from the cache...
    EXPECT_EQ(stats.cachedPoints, 2u);
    EXPECT_EQ(stats.evaluatedPoints, 2u);
    // ...and no point evaluated twice across the kill/resume boundary:
    // 4 points, 4 store lines.
    std::size_t store_lines = 0;
    std::ifstream in(store);
    for (std::string line; std::getline(in, line);)
        store_lines += !line.empty();
    EXPECT_EQ(store_lines, points.size());
}

TEST(QueueDispatch, RestartedCoordinatorLeavesAnotherSweepAlone)
{
    // Two sweeps share one queue. Sweep B's coordinator restarts while
    // sweep A's shards sit pending: B's start-up cleanup must cancel
    // only B's stale task, and the two sweeps' shard files must not
    // collide even though both have a "shard0".
    const std::string dir = freshDir("shared");
    WorkQueue queue(dir);
    const std::vector<SweepPoint> points_a = tinyGrid();
    const std::vector<SweepPoint> points_b =
        tinyGrid(WorkloadId::OltpDb2, WorkloadId::MediaStreaming);
    const std::string key_b = dispatch::sweepKey(points_b);
    ASSERT_NE(dispatch::sweepKey(points_a), key_b);

    // What B's dead first incarnation left: one pending task.
    sweepio::TaskRecord stale;
    stale.id = key_b + "-deadbeef-s0-a1";
    stale.command = "exit 1";
    queue.enqueue(stale);

    dispatch::DispatchOptions opts;
    opts.sweepBin = CFL_SWEEP_BIN;
    opts.shards = 2;
    opts.pollMs = 5;
    // A's coordinator gives up on (and retries) a cancelled task after
    // this long instead of waiting forever; its retry count shows it.
    dispatch::DispatchOptions opts_a = opts;
    opts_a.retry.timeoutSec = 30;
    dispatch::DispatchStats stats_a;
    SweepResult merged_a;
    std::thread coordinator_a([&] {
        merged_a = dispatch::runDispatchedSweep(points_a, queue, opts_a,
                                                nullptr, &stats_a);
    });
    while (queue.pendingCount() < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    dispatch::reconcileSweep(queue, key_b);
    EXPECT_EQ(queue.pendingCount(), 2u); // A's shards survive
    SweepResult merged_b;
    {
        WorkerThread w1(queue, "w1"), w2(queue, "w2");
        merged_b = dispatch::runDispatchedSweep(points_b, queue, opts,
                                                nullptr, nullptr);
        coordinator_a.join();
    }
    EXPECT_EQ(sweepio::encodeResult(merged_a), referenceBytes(points_a));
    EXPECT_EQ(sweepio::encodeResult(merged_b), referenceBytes(points_b));
    EXPECT_EQ(stats_a.retries, 0u);
}
