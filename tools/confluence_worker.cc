/**
 * @file
 * Pull-based sweep worker daemon.
 *
 * Runs the queue worker loop (src/queue/worker.hh) against a
 * persistent work queue: claim a task (a `confluence_sweep --points`
 * shard a confluence_dispatch coordinator enqueued), run it while
 * heartbeating its lease, fold the shard's outcomes into the
 * content-addressed result cache, and only then record completion.
 * Because completed work lands in the cache *before* the completion
 * record, a coordinator can be SIGKILLed at any moment and a restarted
 * one resumes from the queue + cache without re-evaluating anything.
 *
 * Workers are anonymous and elastic: start any number on any machines
 * sharing the queue directory (and the cache store), kill them freely
 * — an expired lease is reclaimed by whichever worker next looks.
 *
 * Usage:
 *   confluence_worker [--queue DIR] [--owner NAME] [--lease SEC]
 *                     [--poll-ms MS] [--idle-exit SEC] [--max-tasks N]
 *                     [--cache FILE | --no-cache] [--code-version TAG]
 *
 *   --queue DIR     queue directory (default $CONFLUENCE_QUEUE_DIR or
 *                   ".confluence-queue")
 *   --owner NAME    lease owner identity (default host:pid)
 *   --lease SEC     lease duration per claim/heartbeat (default 60);
 *                   heartbeats fire every SEC/3, so only a dead or
 *                   fully stalled worker ever expires
 *   --poll-ms MS    idle poll interval (default 200)
 *   --idle-exit SEC exit 0 after SEC with nothing to do (default 0 =
 *                   run until stopped)
 *   --max-tasks N   exit 0 after completing N tasks (0 = unlimited)
 *   --cache FILE    result store to append shard outcomes to (default
 *                   $CONFLUENCE_CACHE_DIR/results.jsonl); opened once
 *                   for the daemon's whole life, not once per task
 *   --code-version  cache key tag (default $CONFLUENCE_CODE_VERSION)
 *
 * The daemon exits 0 when the queue's stop marker appears and no work
 * is pending (`confluence_dispatch --stop-workers`, or `touch
 * <queue>/stop`), on --idle-exit, or on --max-tasks; 1 on a fatal
 * error; 2 on usage errors. On SIGINT or SIGTERM it kills the running
 * task's process group and exits 128 + the signal number, leaving the
 * task claimed: its lease expires and another worker reruns it, with
 * no attempt counted against the coordinator's --retries.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "common/strings.hh"
#include "dispatch/result_cache.hh"
#include "queue/queue.hh"
#include "queue/worker.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s [--queue DIR] [--owner NAME] [--lease SEC]\n"
        "     [--poll-ms MS] [--idle-exit SEC] [--max-tasks N]\n"
        "     [--cache FILE | --no-cache] [--code-version TAG]\n"
        "exit codes: 0 clean shutdown (stop marker, --idle-exit,\n"
        "  --max-tasks), 1 fatal, 2 usage, 128+N on signal N\n",
        argv0);
    std::exit(kExitUsage);
}

std::string
defaultOwner()
{
    char host[256] = "localhost";
    ::gethostname(host, sizeof(host) - 1);
    return std::string(host) + ":" + std::to_string(::getpid());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string queue_dir = queue::WorkQueue::defaultDir();
    queue::WorkerOptions wopts;
    wopts.owner = defaultOwner();
    std::string cache_path = dispatch::ResultCache::defaultStorePath();
    std::string code_version =
        dispatch::ResultCache::defaultCodeVersion();
    bool no_cache = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--queue")
            queue_dir = value();
        else if (arg == "--owner")
            wopts.owner = value();
        else if (arg == "--lease")
            wopts.leaseSec = parseUnsignedFlag(arg, value());
        else if (arg == "--poll-ms")
            wopts.pollMs = parseUnsignedFlag(arg, value());
        else if (arg == "--idle-exit")
            wopts.idleExitSec = parseUnsignedFlag(arg, value());
        else if (arg == "--max-tasks")
            wopts.maxTasks = parseUnsignedFlag(arg, value());
        else if (arg == "--cache")
            cache_path = value();
        else if (arg == "--no-cache")
            no_cache = true;
        else if (arg == "--code-version")
            code_version = value();
        else
            usage(argv[0]);
    }
    if (wopts.leaseSec == 0)
        cfl_fatal("--lease must be >= 1");
    if (wopts.pollMs == 0)
        cfl_fatal("--poll-ms must be >= 1");

    queue::WorkQueue queue(queue_dir);
    // One cache open per daemon run — every completed task reuses this
    // instance (and its single append descriptor) instead of reopening
    // the store per completion.
    std::unique_ptr<dispatch::ResultCache> cache;
    if (!no_cache)
        cache = std::make_unique<dispatch::ResultCache>(cache_path,
                                                        code_version);
    wopts.cache = cache.get();
    std::fprintf(stderr,
                 "confluence_worker %s: queue %s, lease %us, cache %s\n",
                 wopts.owner.c_str(), queue.dir().c_str(), wopts.leaseSec,
                 no_cache ? "(off)" : cache_path.c_str());
    wopts.quit = &queue::quitOnSignal();
    queue::runWorker(queue, wopts);
    if (const int sig = queue::caughtSignal()) {
        std::fprintf(stderr, "confluence_worker %s: signal %d, running "
                     "task killed, exiting\n", wopts.owner.c_str(), sig);
        return 128 + sig;
    }
    return 0;
}
