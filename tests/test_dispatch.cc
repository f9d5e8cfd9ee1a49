/**
 * @file Tests for the dispatch subsystem: result-cache key stability
 * (same point+seed → same digest across runs; code-version bump →
 * miss), the content-addressed store round trip, dispatched sweeps
 * over a private work queue served by in-process worker threads (byte
 * identity, retry as a fresh task, exhausted and no-retry exit codes,
 * per-command timeouts), the process-spawn helper's timeout and
 * process-group kill, and the confluence_worker / confluence_dispatch
 * binaries' signal handling and work-directory cleanup.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "dispatch/dispatcher.hh"
#include "dispatch/history.hh"
#include "dispatch/process.hh"
#include "dispatch/result_cache.hh"
#include "queue/queue.hh"
#include "shard_test_util.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"

using namespace cfl;
using namespace cfl::dispatch;
using namespace cfl::test;

namespace
{

RunScale
quickScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    return scale;
}

SweepPoint
somePoint()
{
    return {FrontendKind::Confluence, WorkloadId::DssQry, quickScale()};
}

SweepOutcome
someOutcome(FrontendKind kind, WorkloadId workload)
{
    SweepOutcome o;
    o.point = {kind, workload, quickScale()};
    o.seed = sweepPointSeed(kind, workload);
    CoreMetrics core;
    core.retired = 1000 + static_cast<Counter>(kind);
    core.cycles = 2000 + static_cast<Counter>(workload);
    o.metrics.cores.push_back(core);
    return o;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "dispatch_" + name;
}

/** Fresh directory for one test. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = tmpPath(name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * True once @p pid stops running within @p ms: kill(pid, 0) fails, or
 * the process is a zombie. A killed orphan is reparented and may
 * linger as a zombie until its new parent reaps it.
 */
bool
stopsRunningWithin(pid_t pid, int ms)
{
    for (int waited = 0;; waited += 20) {
        if (::kill(pid, 0) != 0 && errno == ESRCH)
            return true;
        std::string stat;
        std::getline(std::ifstream("/proc/" + std::to_string(pid) + "/stat"),
                     stat);
        const std::size_t paren = stat.rfind(')');
        if (paren != std::string::npos && paren + 2 < stat.size() &&
            stat[paren + 2] == 'Z')
            return true;
        if (waited >= ms)
            return false;
        ::usleep(20'000);
    }
}

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        ++lines;
    return lines;
}

} // namespace

// ---------------------------------------------------------------------------
// Digest / cache key stability
// ---------------------------------------------------------------------------

TEST(DispatchDigest, StableAcrossCallsAndInstances)
{
    const SweepPoint point = somePoint();
    const std::uint64_t seed =
        sweepPointSeed(point.kind, point.workload);

    const std::string a = sweepio::pointDigest(point, seed, "v1");
    const std::string b = sweepio::pointDigest(point, seed, "v1");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 16u);

    // The key is a pure function of content, not of process state:
    // a fresh cache instance computes the identical key.
    ResultCache cache1(tmpPath("nonexistent.jsonl"), "v1");
    ResultCache cache2(tmpPath("nonexistent.jsonl"), "v1");
    EXPECT_EQ(cache1.key(point, seed), cache2.key(point, seed));
    EXPECT_EQ(cache1.key(point, seed), a);
}

TEST(DispatchDigest, EveryCoordinateChangesTheKey)
{
    const SweepPoint point = somePoint();
    const std::uint64_t seed =
        sweepPointSeed(point.kind, point.workload);
    const std::string base = sweepio::pointDigest(point, seed, "v1");

    // Seed bump → different key.
    EXPECT_NE(sweepio::pointDigest(point, seed + 1, "v1"), base);
    // Code-version bump → different key.
    EXPECT_NE(sweepio::pointDigest(point, seed, "v2"), base);
    // Scale knob change → different key.
    SweepPoint scaled = point;
    scaled.scale.timingMeasureInsts += 1;
    EXPECT_NE(sweepio::pointDigest(scaled, seed, "v1"), base);
    // Distinct (kind, workload) pairs → pairwise-distinct keys.
    std::set<std::string> keys;
    for (const FrontendKind kind : allFrontendKinds())
        for (const WorkloadId wl : allWorkloads()) {
            SweepPoint p{kind, wl, quickScale()};
            keys.insert(sweepio::pointDigest(
                p, sweepPointSeed(kind, wl), "v1"));
        }
    EXPECT_EQ(keys.size(),
              allFrontendKinds().size() * allWorkloads().size());
}

// ---------------------------------------------------------------------------
// Result cache store
// ---------------------------------------------------------------------------

TEST(ResultCache, MissOnEmptyThenHitAfterInsert)
{
    const std::string store = tmpPath("cache_mem.jsonl");
    std::remove(store.c_str());

    ResultCache cache(store, "v1");
    const SweepOutcome outcome =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    EXPECT_EQ(cache.lookup(outcome.point, outcome.seed), nullptr);
    EXPECT_EQ(cache.misses(), 1u);

    cache.insert(outcome);
    const SweepOutcome *hit = cache.lookup(outcome.point, outcome.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit),
              sweepio::encodeOutcome(outcome));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCache, RoundTripsThroughStoreFile)
{
    const std::string store = tmpPath("cache_store.jsonl");
    std::remove(store.c_str());

    const SweepOutcome a =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    const SweepOutcome b =
        someOutcome(FrontendKind::Baseline, WorkloadId::WebFrontend);
    {
        ResultCache cache(store, "v1");
        cache.insert(a);
        cache.insert(b);
        cache.flush();
    }

    // A new instance (a new process, in the real workflow) sees both
    // entries byte-identically.
    ResultCache cache(store, "v1");
    EXPECT_EQ(cache.size(), 2u);
    const SweepOutcome *hit = cache.lookup(a.point, a.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit), sweepio::encodeOutcome(a));

    // Same store under a bumped code version: every lookup misses, so
    // a simulator change can never serve stale metrics.
    ResultCache bumped(store, "v2");
    EXPECT_EQ(bumped.lookup(a.point, a.seed), nullptr);
    EXPECT_EQ(bumped.lookup(b.point, b.seed), nullptr);
    EXPECT_EQ(bumped.misses(), 2u);

    std::remove(store.c_str());
}

TEST(ResultCache, SkipsTornAndForeignStoreLinesInsteadOfDying)
{
    const std::string store = tmpPath("cache_torn.jsonl");
    std::remove(store.c_str());

    const SweepOutcome good =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    {
        ResultCache cache(store, "v1");
        cache.insert(good);
        cache.flush();
    }
    // Corrupt the shared store the two ways real fleets do: an entry
    // appended by a newer binary with a kind this build doesn't know,
    // and a line torn by a process killed mid-append.
    {
        std::string foreign = sweepio::encodeCacheEntry(
            {std::string(16, '0'), good});
        const std::size_t slug = foreign.find("\"confluence\"");
        ASSERT_NE(slug, std::string::npos);
        foreign.replace(slug, 12, "\"warp_drive\"");
        std::ofstream out(store, std::ios::app);
        out << foreign << '\n' << "{\"key\":\"torn";
    }

    ResultCache cache(store, "v1");
    EXPECT_EQ(cache.size(), 1u); // both bad lines skipped, not fatal
    const SweepOutcome *hit = cache.lookup(good.point, good.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit),
              sweepio::encodeOutcome(good));
    std::remove(store.c_str());
}

TEST(ResultCache, ReinsertingIdenticalOutcomeDoesNotGrowTheStore)
{
    const std::string store = tmpPath("cache_regrow.jsonl");
    std::remove(store.c_str());

    const SweepOutcome a =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    ResultCache cache(store, "v1");
    cache.insert(a);
    cache.flush();
    cache.insert(a); // byte-identical re-insert
    cache.flush();

    ResultCache back(store, "v1");
    EXPECT_EQ(back.size(), 1u);
    std::remove(store.c_str());
}

TEST(ResultCache, StoreIsOpenedOncePerRunNotPerLookupOrFlush)
{
    const std::string store = tmpPath("cache_opens.jsonl");
    std::remove(store.c_str());

    ResultCache::resetStoreOpensForTesting();
    ResultCache cache(store, "v1");
    EXPECT_EQ(ResultCache::storeOpens(), 1u); // the load

    // A long-lived user (the worker daemon) looks up and flushes once
    // per task for hours; the store must not reopen per operation.
    for (unsigned i = 0; i < 8; ++i) {
        const SweepOutcome outcome = someOutcome(
            FrontendKind::Confluence,
            allWorkloads()[i % allWorkloads().size()]);
        (void)cache.lookup(outcome.point, outcome.seed);
        cache.insert(outcome);
        cache.flush();
    }
    // Exactly one more open: the append descriptor, taken lazily on
    // the first flush and reused by the other seven.
    EXPECT_EQ(ResultCache::storeOpens(), 2u);
    std::remove(store.c_str());
}

TEST(RegressionHistory, StoreIsOpenedOncePerRunNotPerAppend)
{
    const std::string path = tmpPath("history_opens.jsonl");
    std::remove(path.c_str());

    RegressionHistory::resetStoreOpensForTesting();
    RegressionHistory history(path);
    EXPECT_EQ(RegressionHistory::storeOpens(), 1u); // the load
    for (unsigned i = 0; i < 5; ++i) {
        HistoryEntry entry;
        entry.tag = "commit-" + std::to_string(i);
        entry.geomeans = {{"confluence", 1.0 + i}};
        history.append(entry);
    }
    // One more open for the append descriptor, shared by all five.
    EXPECT_EQ(RegressionHistory::storeOpens(), 2u);

    // And everything written through the shared descriptor reloads.
    RegressionHistory back(path);
    EXPECT_EQ(back.entries().size(), 5u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Dispatched sweeps: a private queue served by in-process threads
// ---------------------------------------------------------------------------

TEST(DispatchedSweep, FullyCachedSweepEnqueuesNothing)
{
    const std::string store = tmpPath("cache_full.jsonl");
    std::remove(store.c_str());
    ResultCache cache(store, "v1");

    // Pre-populate the cache for a 2x2 grid, inserted in an order
    // different from the submission order below.
    std::vector<SweepPoint> points;
    for (const FrontendKind kind :
         {FrontendKind::Baseline, FrontendKind::Confluence})
        for (const WorkloadId wl :
             {WorkloadId::DssQry, WorkloadId::WebFrontend})
            points.push_back({kind, wl, quickScale()});
    for (std::size_t i = points.size(); i-- > 0;)
        cache.insert(someOutcome(points[i].kind, points[i].workload));

    queue::WorkQueue queue(freshDir("cache_full_queue"));
    DispatchOptions opts;
    opts.sweepBin = "unused";
    opts.workerThreads = 2;

    DispatchStats stats;
    const SweepResult result =
        runDispatchedSweep(points, queue, opts, &cache, &stats);

    EXPECT_TRUE(queue.readLog().empty()); // not one task enqueued
    EXPECT_EQ(stats.cachedPoints, points.size());
    EXPECT_EQ(stats.evaluatedPoints, 0u);
    EXPECT_EQ(stats.attempts, 0u);
    ASSERT_EQ(result.points.size(), points.size());
    // Reassembly preserves submission order, not insertion order.
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(result.points[i].point.kind, points[i].kind);
        EXPECT_EQ(result.points[i].point.workload, points[i].workload);
    }
    std::remove(store.c_str());
}

TEST(DispatchedSweep, ThreadsMergeByteIdenticalAndFillTheCache)
{
    const std::string dir = freshDir("threads");
    const std::vector<SweepPoint> points = tinyGrid();
    queue::WorkQueue queue(dir + "/queue");
    DispatchOptions opts;
    opts.sweepBin = CFL_SWEEP_BIN;
    opts.workerThreads = 2;
    opts.shards = 3;

    DispatchStats stats;
    {
        ResultCache cache(dir + "/cache.jsonl", "v1");
        const SweepResult merged =
            runDispatchedSweep(points, queue, opts, &cache, &stats);
        EXPECT_EQ(sweepio::encodeResult(merged), referenceBytes(points));
    }
    EXPECT_EQ(stats.evaluatedPoints, points.size());
    EXPECT_EQ(stats.shards, 3u);
    EXPECT_EQ(stats.attempts, 3u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(queue.pendingCount() + queue.claimedCount(), 0u);

    // The worker threads stored every outcome before marking its task
    // done: a second dispatch is pure cache replay.
    ResultCache reload(dir + "/cache.jsonl", "v1");
    EXPECT_EQ(reload.size(), points.size());
    runDispatchedSweep(points, queue, opts, &reload, &stats);
    EXPECT_EQ(stats.cachedPoints, points.size());
    EXPECT_EQ(stats.attempts, 0u);
}

TEST(DispatchedSweep, FailedAttemptIsRetriedAsAFreshTask)
{
    const std::string dir = freshDir("retry");
    const std::vector<SweepPoint> points = tinyGrid();
    queue::WorkQueue queue(dir + "/queue");
    DispatchOptions opts;
    // Every shard fails its first attempt, then runs for real.
    opts.sweepBin = scriptedSweep(
        dir, "[ -e \"$4.failed\" ] || { touch \"$4.failed\"; exit 9; }");
    opts.workerThreads = 2;
    opts.shards = 2;
    opts.retry.maxAttempts = 2;

    DispatchStats stats;
    const SweepResult merged =
        runDispatchedSweep(points, queue, opts, nullptr, &stats);
    EXPECT_EQ(sweepio::encodeResult(merged), referenceBytes(points));
    EXPECT_EQ(stats.attempts, 4u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(countLines(dir + "/runs.log"), 4u);

    // Each retry went through the queue as a task of its own.
    std::set<std::string> enqueued;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        if (record.op == "enqueue")
            enqueued.insert(record.task.id);
    EXPECT_EQ(enqueued.size(), 4u);
}

namespace
{

/** What the DispatchError of a failing dispatch says ("" if none). */
std::string
dispatchError(const std::vector<SweepPoint> &points,
              queue::WorkQueue &queue, const DispatchOptions &opts)
{
    try {
        runDispatchedSweep(points, queue, opts, nullptr, nullptr);
    } catch (const DispatchError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(DispatchedSweep, ExhaustedRetriesAreReportedInProcess)
{
    // A shard that runs out of attempts fails the call, not the
    // process: the caller gets the error, and the same queue serves
    // the next dispatch.
    const std::string dir = freshDir("exhaust");
    const std::vector<SweepPoint> points = tinyGrid();
    queue::WorkQueue queue(dir + "/queue");
    DispatchOptions opts;
    opts.sweepBin = scriptedSweep(dir, "exit 9");
    opts.workerThreads = 2;
    opts.shards = 1;
    opts.retry.maxAttempts = 3;
    EXPECT_EQ(dispatchError(points, queue, opts),
              "shard 0 failed after 3 attempt(s) (last exit 9)");
    EXPECT_EQ(countLines(dir + "/runs.log"), 3u);
    EXPECT_EQ(queue.pendingCount() + queue.claimedCount(), 0u);

    opts.sweepBin = CFL_SWEEP_BIN;
    DispatchStats stats;
    const SweepResult merged =
        runDispatchedSweep(points, queue, opts, nullptr, &stats);
    EXPECT_EQ(sweepio::encodeResult(merged), referenceBytes(points));
    EXPECT_EQ(stats.attempts, 1u);
}

TEST(DispatchedSweep, CorruptShardExitCodeIsNeverRetried)
{
    // Exit 3 is confluence_sweep's duplicate-point rejection: the
    // input is corrupt, so retrying elsewhere cannot succeed.
    const std::string dir = freshDir("corrupt");
    DispatchOptions opts;
    opts.sweepBin = scriptedSweep(dir, "exit 3");
    opts.workerThreads = 2;
    opts.shards = 1;
    opts.retry.maxAttempts = 5;
    queue::WorkQueue queue(dir + "/queue");
    EXPECT_EQ(dispatchError(tinyGrid(), queue, opts),
              "shard 0 failed after 1 attempt(s) (last exit 3)");
    EXPECT_EQ(countLines(dir + "/runs.log"), 1u);
}

TEST(DispatchedSweep, TimedOutCommandIsKilledAndRetried)
{
    const std::string dir = freshDir("timeout");
    const std::vector<SweepPoint> points = tinyGrid();
    const std::string reference = referenceBytes(points);
    const std::string precomputed = dir + "/reference.jsonl";
    std::ofstream(precomputed) << reference;
    queue::WorkQueue queue(dir + "/queue");
    DispatchOptions opts;
    // The first attempt hangs; the thread running it kills it at the
    // one-second limit. The limit applies to the retry too, so the
    // retry copies the precomputed result instead of simulating: a
    // sanitizer-built sweep can take a second on a loaded host.
    // FailedAttemptIsRetriedAsAFreshTask covers a retry that runs the
    // real sweep.
    opts.sweepBin = scriptedSweep(
        dir, "if [ -e \"$4.hung\" ]; then cp " + shellQuote(precomputed) +
                 " \"$4\"; exit 0; fi; touch \"$4.hung\"; sleep 30");
    opts.workerThreads = 1;
    opts.shards = 1;
    opts.retry.timeoutSec = 1;

    DispatchStats stats;
    const SweepResult merged =
        runDispatchedSweep(points, queue, opts, nullptr, &stats);
    EXPECT_EQ(sweepio::encodeResult(merged), reference);
    EXPECT_EQ(stats.attempts, 2u);
    bool saw_kill = false;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        saw_kill |= record.op == "done" &&
                    record.done.exitCode == 128u + SIGKILL;
    EXPECT_TRUE(saw_kill);
}

// ---------------------------------------------------------------------------
// Process spawning: exit codes, timeout, process-group kill, ssh wrapping
// ---------------------------------------------------------------------------

TEST(RunLocalCommand, ReportsExitCodes)
{
    EXPECT_TRUE(runLocalCommand("true", 0).ok());

    const RunStatus failed = runLocalCommand("exit 7", 0);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.exitCode, 7);
    EXPECT_FALSE(failed.timedOut);
}

TEST(RunLocalCommand, TimeoutKillsTheWholeProcessGroup)
{
    // /bin/sh forks a background child and waits on it: killing only
    // the shell would leave `sleep 30` running.
    const std::string pid_file = freshDir("pgroup") + "/child.pid";
    const RunStatus slow = runLocalCommand(
        "sleep 30 & echo $! > " + shellQuote(pid_file) + "; wait", 1);
    EXPECT_FALSE(slow.ok());
    EXPECT_TRUE(slow.timedOut);

    pid_t child = 0;
    std::ifstream(pid_file) >> child;
    ASSERT_GT(child, 0);
    EXPECT_TRUE(stopsRunningWithin(child, 2000))
        << "pid " << child << " outlived the timeout";
}

TEST(SshWrapCommand, WrapsCommandsWithBatchModeAndQuoting)
{
    EXPECT_EQ(sshWrapCommand("host1", "", "echo hi"),
              "ssh -o BatchMode=yes 'host1' 'echo hi'");
    // The remote directory and any embedded quote survive quoting.
    EXPECT_EQ(sshWrapCommand("u@h", "/sweeps/run dir", "echo 'x'"),
              "ssh -o BatchMode=yes 'u@h' "
              "'cd '\\''/sweeps/run dir'\\'' && echo '\\''x'\\'''");
}

TEST(SshWrapCommand, QueueDirPathsWithSpacesAndQuotesSurviveWrapping)
{
    // Starting a remote worker daemon against a queue directory that
    // holds spaces and single quotes: the worker command is itself
    // built with shellQuote, then the whole thing is quoted once more
    // for the remote shell. Pin both layers.
    const std::string qdir = "/sweeps/queue dir/it's";
    const std::string worker_cmd =
        "./confluence_worker --queue " + shellQuote(qdir);
    EXPECT_EQ(worker_cmd,
              "./confluence_worker --queue "
              "'/sweeps/queue dir/it'\\''s'");
    EXPECT_EQ(sshWrapCommand("u@h", "", worker_cmd),
              "ssh -o BatchMode=yes 'u@h' "
              "'./confluence_worker --queue "
              "'\\''/sweeps/queue dir/it'\\''\\'\\'''\\''s'\\'''");

    // And the remote shell must decode that back to the original
    // argument. ssh hands its command string to the remote login
    // shell, so run the wrapped command's remote half through a local
    // sh the same way and observe the argv it produces.
    const std::string probe = sshWrapCommand("ignored", "", worker_cmd);
    const std::string remote =
        probe.substr(std::string("ssh -o BatchMode=yes 'ignored' ")
                         .size());
    // remote is one sh-quoted word; eval re-parses it exactly as the
    // remote shell would, and $3 must be the original queue dir.
    const RunStatus status = runLocalCommand(
        "eval set -- " + remote + "; test \"$3\" = " + shellQuote(qdir),
        10);
    EXPECT_TRUE(status.ok())
        << "remote shell would not see the original queue dir";
}

// ---------------------------------------------------------------------------
// Regression history
// ---------------------------------------------------------------------------

TEST(RegressionHistory, AppendsAndComparesExactGeomeans)
{
    const std::string path = tmpPath("history.jsonl");
    std::remove(path.c_str());

    HistoryEntry first;
    first.tag = "commit-a";
    first.geomeans = {{"confluence", 1.2175843611061371}};
    HistoryEntry second;
    second.tag = "commit-b";
    second.geomeans = {{"confluence", 1.2175843611061371 * 0.9}};

    {
        RegressionHistory history(path);
        // compare() gates a candidate against the newest stored entry
        // *before* it is appended, so a failed gate leaves the
        // baseline untouched.
        EXPECT_TRUE(history.compare(first).empty());
        history.append(first);
        EXPECT_TRUE(history.deltas().empty());
        const auto gated = history.compare(second);
        ASSERT_EQ(gated.size(), 1u);
        EXPECT_NEAR(gated[0].delta, -0.1, 1e-12);
        history.append(second);
        const auto deltas = history.deltas();
        ASSERT_EQ(deltas.size(), 1u);
        EXPECT_EQ(deltas[0].kind, "confluence");
        EXPECT_NEAR(deltas[0].delta, -0.1, 1e-12);
    }

    // Reloaded from disk, geomeans are bit-exact (stored as IEEE-754
    // bit patterns), so equal results give a delta of exactly zero.
    RegressionHistory back(path);
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.entries()[0].geomeans[0].second,
              first.geomeans[0].second);
    EXPECT_EQ(back.entries()[1].geomeans[0].second,
              second.geomeans[0].second);
    std::remove(path.c_str());
}

TEST(RegressionHistory, RejectsTagsTheStoreCannotReparse)
{
    const std::string path = tmpPath("history_badtag.jsonl");
    std::remove(path.c_str());
    HistoryEntry entry;
    entry.tag = "v1\"rc";
    entry.geomeans = {{"confluence", 1.0}};
    EXPECT_EXIT(
        {
            RegressionHistory history(path);
            history.append(entry);
        },
        ::testing::ExitedWithCode(1), "cannot hold");
}

// ---------------------------------------------------------------------------
// The tools: signals reach the shard process groups; a local dispatch
// cleans up its private queue
// ---------------------------------------------------------------------------

namespace
{

/** Start @p argv (argv[0] a path) as a child process. */
pid_t
spawn(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    return pid;
}

/** The pid @p path holds once written, waiting up to 20 s; 0 if none. */
pid_t
awaitPidFile(const std::string &path)
{
    for (int i = 0; i < 1000; ++i) {
        pid_t pid = 0;
        if (std::ifstream(path) >> pid && pid > 0)
            return pid;
        ::usleep(20'000);
    }
    return 0;
}

/** Wait up to 20 s for @p pid: its exit code, -128 - N after a death
 *  by signal N, or -1 if it still runs (it is then SIGKILLed). */
int
awaitExit(pid_t pid)
{
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -128 - WTERMSIG(status);
        ::usleep(20'000);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return -1;
}

/** A task command that forks `sleep 30`, records its pid in
 *  @p pid_file and waits on it. */
std::string
sleeperCommand(const std::string &pid_file)
{
    return "sleep 30 & echo $! > " + shellQuote(pid_file) + "; wait";
}

/** Signal @p tool once @p pid_file names its shard's sleep; the tool
 *  must exit 128 + @p sig and the sleep stop running within 2 s. */
void
expectSignalKillsTheShard(pid_t tool, int sig, const std::string &pid_file)
{
    const pid_t sleeper = awaitPidFile(pid_file);
    ASSERT_GT(sleeper, 0) << "the task never started";
    ::kill(tool, sig);
    EXPECT_EQ(awaitExit(tool), 128 + sig);
    EXPECT_TRUE(stopsRunningWithin(sleeper, 2000))
        << "the shard's sleep (pid " << sleeper << ") outlived signal "
        << sig;
    ::kill(sleeper, SIGKILL);
}

} // namespace

TEST(DispatchedSweep, QuitFlagEndsTheWaitAndKillsRunningShards)
{
    const std::string dir = freshDir("dispatch_quit");
    queue::WorkQueue queue(dir + "/queue");
    DispatchOptions opts;
    opts.sweepBin =
        scriptedSweep(dir, sleeperCommand(dir + "/sleep.pid"));
    opts.workerThreads = 1;
    opts.shards = 1;
    std::atomic<bool> quit{false};
    opts.quit = &quit;

    pid_t sleeper = 0;
    std::thread owner([&] {
        sleeper = awaitPidFile(dir + "/sleep.pid");
        quit = true;
    });
    const SweepResult result =
        runDispatchedSweep(tinyGrid(), queue, opts, nullptr, nullptr);
    owner.join();
    ASSERT_GT(sleeper, 0) << "the task never started";
    EXPECT_TRUE(result.points.empty());
    EXPECT_TRUE(stopsRunningWithin(sleeper, 2000))
        << "the shard's sleep (pid " << sleeper << ") outlived the quit";
    // Abandoned as a dead worker's: no failed attempt is on record.
    EXPECT_EQ(queue.claimedCount(), 1u);
    ::kill(sleeper, SIGKILL);
}

TEST(ConfluenceWorker, SignalKillsTheRunningTaskGroupAndExits128PlusSig)
{
    for (const int sig : {SIGINT, SIGTERM}) {
        SCOPED_TRACE("signal " + std::to_string(sig));
        const std::string dir =
            freshDir("worker_signal" + std::to_string(sig));
        queue::WorkQueue queue(dir + "/queue");
        sweepio::TaskRecord task;
        task.id = "sleeper";
        task.command = sleeperCommand(dir + "/sleep.pid");
        queue.enqueue(task);

        const pid_t worker =
            spawn({CFL_WORKER_BIN, "--queue", dir + "/queue", "--no-cache",
                   "--poll-ms", "20", "--owner", "signal-test"});
        expectSignalKillsTheShard(worker, sig, dir + "/sleep.pid");
    }
}

TEST(ConfluenceWorker, SignalledTaskIsRerunWithoutCostingARetry)
{
    const std::string dir = freshDir("worker_signal_rerun");
    const std::vector<SweepPoint> points = tinyGrid();
    sweepio::writePoints(dir + "/points.jsonl", points);
    // The first attempt sleeps until it is killed; a rerun is real.
    const std::string sweep = scriptedSweep(
        dir, "[ -e \"$4.slept\" ] || { touch \"$4.slept\"; " +
                 sleeperCommand(dir + "/sleep.pid") + "; }");
    const auto worker = [&](const std::string &owner) {
        return spawn({CFL_WORKER_BIN, "--queue", dir + "/queue",
                      "--no-cache", "--poll-ms", "20", "--lease", "1",
                      "--max-tasks", "1", "--idle-exit", "5", "--owner",
                      owner});
    };

    const pid_t first = worker("first");
    const pid_t dispatch =
        spawn({CFL_DISPATCH_BIN, "--backend", "queue", "--queue-dir",
               dir + "/queue", "--points", dir + "/points.jsonl", "--out",
               dir + "/out.jsonl", "--shards", "1", "--retries", "0",
               "--no-cache", "--sweep-bin", sweep});
    expectSignalKillsTheShard(first, SIGTERM, dir + "/sleep.pid");
    const pid_t second = worker("second");
    EXPECT_EQ(awaitExit(dispatch), 0)
        << "the signalled attempt cost the shard its only attempt";
    EXPECT_EQ(awaitExit(second), 0);
    ASSERT_TRUE(std::filesystem::exists(dir + "/out.jsonl"));
    EXPECT_EQ(sweepio::encodeResult(sweepio::readResult(dir + "/out.jsonl")),
              referenceBytes(points));
}

TEST(ConfluenceDispatch, SignalKillsLocalShardsAndKeepsTheWorkDir)
{
    for (const int sig : {SIGINT, SIGTERM}) {
        SCOPED_TRACE("signal " + std::to_string(sig));
        const std::string dir =
            freshDir("dispatch_signal" + std::to_string(sig));
        sweepio::writePoints(dir + "/points.jsonl", tinyGrid());
        const std::string sweep =
            scriptedSweep(dir, sleeperCommand(dir + "/sleep.pid"));

        const pid_t dispatch =
            spawn({CFL_DISPATCH_BIN, "--points", dir + "/points.jsonl",
                   "--out", dir + "/out.jsonl", "--workers", "1",
                   "--no-cache", "--sweep-bin", sweep});
        expectSignalKillsTheShard(dispatch, sig, dir + "/sleep.pid");
        // Kept, as after a crash: a restart reconciles from it.
        EXPECT_TRUE(std::filesystem::exists(dir + "/out.jsonl.work"));
    }
}

TEST(ConfluenceDispatch, LocalDispatchRemovesItsWorkDir)
{
    const std::string dir = freshDir("dispatch_workdir");
    const std::vector<SweepPoint> points = tinyGrid();
    sweepio::writePoints(dir + "/points.jsonl", points);
    const auto dispatch = [&](const std::string &out) {
        return awaitExit(spawn(
            {CFL_DISPATCH_BIN, "--points", dir + "/points.jsonl", "--out",
             out, "--workers", "2", "--cache", dir + "/cache.jsonl",
             "--code-version", "v1", "--sweep-bin", CFL_SWEEP_BIN}));
    };

    // The second dispatch is all cache hits and still opens the queue.
    for (const std::string &out : {dir + "/a.jsonl", dir + "/b.jsonl"}) {
        ASSERT_EQ(dispatch(out), 0);
        EXPECT_EQ(sweepio::encodeResult(sweepio::readResult(out)),
                  referenceBytes(points));
        EXPECT_FALSE(std::filesystem::exists(out + ".work")) << out;
    }
    EXPECT_EQ(countLines(dir + "/cache.jsonl"), points.size());
}

TEST(ConfluenceDispatch, NamedWorkDirLosesOnlyTheSweepsShardFiles)
{
    const std::string dir = freshDir("dispatch_named_workdir");
    const std::vector<SweepPoint> points = tinyGrid();
    sweepio::writePoints(dir + "/points.jsonl", points);
    const std::string shared = dir + "/shared";
    std::filesystem::create_directories(shared);
    std::ofstream(shared + "/keep.txt") << "not the dispatch's\n";

    ASSERT_EQ(awaitExit(spawn({CFL_DISPATCH_BIN, "--points",
                               dir + "/points.jsonl", "--out",
                               dir + "/out.jsonl", "--workers", "2",
                               "--work-dir", shared, "--no-cache",
                               "--sweep-bin", CFL_SWEEP_BIN})),
              0);
    EXPECT_EQ(sweepio::encodeResult(sweepio::readResult(dir + "/out.jsonl")),
              referenceBytes(points));
    EXPECT_TRUE(std::filesystem::exists(shared + "/keep.txt"));
    EXPECT_FALSE(
        std::filesystem::exists(shared + "/work/" + sweepKey(points)));
}
