/**
 * @file
 * Fault-tolerant sweep dispatcher CLI.
 *
 * Takes a sweep spec (the same JSONL confluence_sweep emits), serves
 * what it can from a content-addressed result cache keyed on (point,
 * seed base, code version), partitions the rest into shards, and runs
 * one `confluence_sweep --points` task per shard through a persistent
 * work queue (src/queue) with per-attempt timeout and bounded retry.
 * The merged output is byte-identical to the single-process
 * `confluence_sweep --points` run either way.
 *
 * Modes (one per invocation):
 *
 *   confluence_dispatch --points spec.jsonl --out merged.jsonl
 *       [--backend local|ssh|queue] [--workers N] [--hosts h1,h2,..]
 *       [--remote-dir DIR] [--queue-dir DIR] [--shards M]
 *       [--timeout SEC] [--retries K]
 *       [--sweep-bin PATH] [--cache FILE | --no-cache]
 *       [--code-version TAG] [--work-dir DIR]
 *     Dispatch the spec and write the merged result. The backends
 *     differ only in who supplies the queue's workers:
 *       local  a private queue in --work-dir (default <out>.work),
 *              served by --workers N (default 2) threads of this
 *              process; none outlives the dispatch. A successful
 *              dispatch removes the default directory (of a named
 *              --work-dir, only its sweep's shard files); a crashed
 *              one leaves it for the restart to reconcile. SIGINT or
 *              SIGTERM kills the running shards' process groups, keeps
 *              the directory and exits 128 + the signal number.
 *              Default shards: one per thread.
 *       ssh    one confluence_worker (the binary next to this one) per
 *              --hosts entry, started over ssh (BatchMode, in
 *              --remote-dir) on --queue-dir, which every host must see
 *              at the same path, as must the cache and sweep binary;
 *              the stop marker ends them after the dispatch. Default
 *              shards: one per host.
 *       queue  external confluence_worker daemons already serving
 *              --queue-dir (default $CONFLUENCE_QUEUE_DIR). Default
 *              shards: 2.
 *     --work-dir holds the shard spec/result files of the ssh and
 *     queue backends (default <queue>/work/<sweep key>), which every
 *     worker must see.
 *     A failed attempt is re-enqueued as a fresh task up to --retries
 *     times; exit 3 (corrupt shard input) and 6 (task quarantined as
 *     poison) are never retried. Workers store each shard's outcomes
 *     in the cache before marking it done, so the coordinator is
 *     restartable: before dispatching it reconciles the queue —
 *     cancels the unclaimed tasks a dead predecessor of the *same*
 *     sweep left and waits out its claimed ones — and a SIGKILLed
 *     coordinator can simply be rerun to produce the same merged bytes
 *     without re-evaluating a single shard. Tasks and shard files are
 *     keyed by a digest of the point list, so coordinators of
 *     different sweeps can share one queue.
 *     Prints one machine-readable stats line to stdout:
 *       dispatch total_points=.. cache_hits=.. cache_misses=..
 *                evaluated_points=.. shards=.. retries=.. attempts=..
 *
 *   confluence_dispatch --queue-dir DIR --stop-workers
 *     Drop the queue's stop marker: every worker daemon drains and
 *     exits 0.
 *
 *   confluence_dispatch --history history.jsonl --result merged.jsonl
 *       --tag TAG [--threshold FRAC]
 *     Report the result's per-design geomean speedups against the
 *     newest history entry, then append them. A design regressed by
 *     more than FRAC (default 0.02) exits 5 *without* appending, so a
 *     regressed run never becomes the next comparison baseline.
 *
 * Environment:
 *   CONFLUENCE_FAULT_PLAN  the unified fault-injection framework
 *       (fault/fault.hh): a seeded, site-indexed schedule of injected
 *       failures, honored by every instrumented site in this process.
 *       CI pins "dispatch.spawn@1:eio" (local backend) to fail the
 *       second shard spawn and force one retry, and
 *       "queue.backend.completion@0:kill" to kill this coordinator the
 *       moment the first task completion is observed — the crash the
 *       queue-sweep job restarts from.
 *   CONFLUENCE_QUEUE_DIR  default --queue-dir (ssh and queue backends).
 *   CONFLUENCE_CACHE_DIR / CONFLUENCE_CODE_VERSION  default cache
 *       location and cache key code-version tag (see --cache /
 *       --code-version).
 *
 * Exit codes: 0 success, 1 fatal error (bad configuration, shard
 * exhausted its retries), 2 usage, 5 regression threshold exceeded;
 * 137 (SIGKILL) when a pinned kill fault fires; 128+N when signal N
 * interrupted a local dispatch.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/history.hh"
#include "dispatch/process.hh"
#include "dispatch/result_cache.hh"
#include "queue/queue.hh"
#include "queue/worker.hh"
#include "sweepio/codec.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;
constexpr int kExitRegression = 5;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --points spec.jsonl --out merged.jsonl\n"
        "     [--backend local|ssh|queue] [--workers N]\n"
        "     [--hosts h1,h2,..] [--remote-dir DIR] [--queue-dir DIR]\n"
        "     [--shards M] [--timeout SEC] [--retries K]\n"
        "     [--sweep-bin PATH]\n"
        "     [--cache FILE | --no-cache]\n"
        "     [--code-version TAG] [--work-dir DIR]\n"
        "  %s --queue-dir DIR --stop-workers\n"
        "  %s --history history.jsonl --result merged.jsonl --tag TAG\n"
        "     [--threshold FRAC]\n"
        "exit codes: 0 ok, 1 fatal, 2 usage, 5 regression over "
        "threshold, 6 task quarantined, 128+N on signal N\n",
        argv0, argv0, argv0);
    std::exit(kExitUsage);
}

/** Parse a decimal flag value; fatal() on anything else. */
double
parseDouble(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        cfl_fatal("%s needs a number, got \"%s\"", flag.c_str(),
                  text.c_str());
    return v;
}

/** Tool @p name next to this binary, falling back to $PATH. */
std::string
siblingBin(const char *argv0, const std::string &name)
{
    const std::string self = argv0;
    const std::size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return name;
    return self.substr(0, slash + 1) + name;
}

int
historyMode(const std::string &history_path,
            const std::string &result_path, const std::string &tag,
            double threshold)
{
    const SweepResult result = sweepio::readResult(result_path);
    dispatch::RegressionHistory history(history_path);
    const dispatch::HistoryEntry entry =
        dispatch::RegressionHistory::summarize(result, tag);

    // Gate before appending: a regressed run must not become the next
    // comparison baseline, or one CI re-run would launder it green.
    const std::vector<dispatch::RegressionDelta> deltas =
        history.compare(entry);
    bool regressed = false;
    for (const dispatch::RegressionDelta &d : deltas) {
        std::printf("history %s kind=%s prev=%.17g cur=%.17g "
                    "delta=%+.4f%%\n",
                    tag.c_str(), d.kind.c_str(), d.previous, d.current,
                    d.delta * 100.0);
        if (d.delta < -threshold)
            regressed = true;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "FAIL: a design regressed more than %.2f%% vs the "
                     "previous history entry; not recording %s\n",
                     threshold * 100.0, tag.c_str());
        return kExitRegression;
    }
    history.append(entry);
    if (deltas.empty())
        std::printf("history %s: first entry, nothing to compare\n",
                    tag.c_str());
    return 0;
}

/**
 * Start `@p worker_cmd --owner <host>` on every host over ssh, in
 * @p remote_dir. Each returned thread waits on one ssh client; the
 * remote worker exits when the queue's stop marker appears.
 */
std::vector<std::thread>
startRemoteWorkers(const std::vector<std::string> &hosts,
                   const std::string &remote_dir,
                   const std::string &worker_cmd)
{
    std::vector<std::thread> fleet;
    for (const std::string &host : hosts) {
        const std::string ssh = dispatch::sshWrapCommand(
            host, remote_dir,
            worker_cmd + " --owner " + dispatch::shellQuote(host));
        fleet.emplace_back([host, ssh] {
            const dispatch::RunStatus status =
                dispatch::runLocalCommand(ssh, 0);
            if (!status.ok())
                cfl_warn("remote worker on %s exited %d", host.c_str(),
                         status.exitCode);
        });
    }
    return fleet;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string points_path, out_path;
    std::string backend_name = "local";
    unsigned workers = 2;
    bool workers_set = false;
    std::string hosts_list, remote_dir;
    std::string queue_dir = queue::WorkQueue::defaultDir();
    bool stop_workers = false;
    unsigned shards = 0, timeout_sec = 0, retries = 2;
    std::string sweep_bin = siblingBin(argv[0], "confluence_sweep");
    std::string cache_path = dispatch::ResultCache::defaultStorePath();
    std::string code_version =
        dispatch::ResultCache::defaultCodeVersion();
    bool no_cache = false;
    std::string work_dir;

    std::string history_path, result_path, tag;
    double threshold = 0.02;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--points")
            points_path = value();
        else if (arg == "--out")
            out_path = value();
        else if (arg == "--backend")
            backend_name = value();
        else if (arg == "--workers") {
            workers = parseUnsignedFlag(arg, value());
            workers_set = true;
        } else if (arg == "--hosts")
            hosts_list = value();
        else if (arg == "--remote-dir")
            remote_dir = value();
        else if (arg == "--queue-dir")
            queue_dir = value();
        else if (arg == "--stop-workers")
            stop_workers = true;
        else if (arg == "--shards")
            shards = parseUnsignedFlag(arg, value());
        else if (arg == "--timeout")
            timeout_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--retries")
            retries = parseUnsignedFlag(arg, value());
        else if (arg == "--sweep-bin")
            sweep_bin = value();
        else if (arg == "--cache")
            cache_path = value();
        else if (arg == "--no-cache")
            no_cache = true;
        else if (arg == "--code-version")
            code_version = value();
        else if (arg == "--work-dir")
            work_dir = value();
        else if (arg == "--history")
            history_path = value();
        else if (arg == "--result")
            result_path = value();
        else if (arg == "--tag")
            tag = value();
        else if (arg == "--threshold")
            threshold = parseDouble(arg, value());
        else
            usage(argv[0]);
    }

    if (stop_workers) {
        if (!points_path.empty() || !history_path.empty())
            usage(argv[0]);
        queue::WorkQueue wq(queue_dir);
        wq.requestStop();
        std::fprintf(stderr, "stop marker dropped in %s; workers will "
                     "drain and exit\n", wq.dir().c_str());
        return 0;
    }
    if (!history_path.empty()) {
        if (result_path.empty() || tag.empty() || !points_path.empty())
            usage(argv[0]);
        return historyMode(history_path, result_path, tag, threshold);
    }
    if (points_path.empty() || out_path.empty())
        usage(argv[0]);

    if (backend_name != "local" && backend_name != "ssh" &&
        backend_name != "queue")
        cfl_fatal("unknown backend \"%s\" (local|ssh|queue)",
                  backend_name.c_str());
    if (backend_name == "local" && workers == 0)
        cfl_fatal("--workers must be >= 1");
    if (backend_name != "local" && workers_set)
        cfl_fatal("--workers applies to --backend local only: the %s "
                  "backend's workers are confluence_worker daemons",
                  backend_name.c_str());
    std::vector<std::string> hosts;
    if (backend_name == "ssh") {
        if (hosts_list.empty())
            cfl_fatal("--backend ssh needs --hosts h1,h2,..");
        hosts = splitList(hosts_list);
    }

    const std::vector<SweepPoint> points =
        sweepio::readPoints(points_path);
    const bool local = backend_name == "local";
    if (local)
        queue_dir = work_dir.empty() ? out_path + ".work" : work_dir;
    queue::WorkQueue wq(queue_dir);
    // A stale stop marker from a drained earlier run would make fresh
    // workers exit mid-dispatch; this run wants them alive.
    wq.clearStop();
    // Reconcile *before* the cache loads below, so every outcome a
    // previous coordinator's in-flight tasks produce is visible to this
    // run's cache lookups.
    const std::string key = dispatch::sweepKey(points);
    dispatch::reconcileSweep(wq, key);

    dispatch::DispatchOptions opts;
    opts.sweepBin = sweep_bin;
    if (!local)
        opts.workDir = work_dir;
    opts.retry.maxAttempts = retries + 1;
    opts.retry.timeoutSec = timeout_sec;
    opts.shards = shards;
    if (local)
        opts.workerThreads = workers;
    else if (shards == 0)
        opts.shards = backend_name == "ssh"
                          ? static_cast<unsigned>(hosts.size())
                          : 2;

    std::unique_ptr<dispatch::ResultCache> cache;
    if (!no_cache)
        cache = std::make_unique<dispatch::ResultCache>(cache_path,
                                                        code_version);

    std::vector<std::thread> fleet;
    if (backend_name == "ssh") {
        const std::string cmd =
            dispatch::shellQuote(siblingBin(argv[0], "confluence_worker")) +
            " --queue " + dispatch::shellQuote(queue_dir) +
            (no_cache ? " --no-cache"
                      : " --cache " + dispatch::shellQuote(cache_path) +
                            " --code-version " +
                            dispatch::shellQuote(code_version));
        fleet = startRemoteWorkers(hosts, remote_dir, cmd);
    }

    // The threads of a local dispatch run shards in process groups of
    // their own, out of reach of a Ctrl-C: on a signal they kill them
    // before the process exits.
    if (local)
        opts.quit = &queue::quitOnSignal();
    dispatch::DispatchStats stats;
    SweepResult merged;
    try {
        merged = dispatch::runDispatchedSweep(points, wq, opts, cache.get(),
                                              &stats);
    } catch (const dispatch::DispatchError &e) {
        cfl_fatal("%s", e.what());
    }
    if (const int sig = queue::caughtSignal()) {
        std::fprintf(stderr, "dispatch interrupted by signal %d; running "
                     "shards killed, %s kept for a restart\n",
                     sig, wq.dir().c_str());
        return 128 + sig;
    }
    if (!fleet.empty()) {
        wq.requestStop();
        for (std::thread &t : fleet)
            t.join();
    }
    sweepio::writeResult(out_path, merged);
    if (local) {
        // Done: a private queue only matters to a restart after a
        // crash, which never got here. A --work-dir the caller named
        // may hold other sweeps' queues and files; of it, only this
        // sweep's shard files go.
        const std::string done_dir =
            work_dir.empty() ? queue_dir : wq.dir() + "/work/" + key;
        std::error_code ec;
        std::filesystem::remove_all(done_dir, ec);
        if (ec)
            cfl_warn("cannot remove work directory \"%s\": %s",
                     done_dir.c_str(), ec.message().c_str());
    }

    std::fprintf(stderr, "dispatched %zu points (backend %s) into %s\n",
                 merged.points.size(), backend_name.c_str(),
                 out_path.c_str());
    std::printf("dispatch total_points=%zu cache_hits=%llu "
                "cache_misses=%llu evaluated_points=%zu shards=%u "
                "retries=%u attempts=%u\n",
                stats.totalPoints,
                static_cast<unsigned long long>(
                    cache ? cache->hits() : 0),
                static_cast<unsigned long long>(
                    cache ? cache->misses() : 0),
                stats.evaluatedPoints, stats.shards, stats.retries,
                stats.attempts);
    return 0;
}
