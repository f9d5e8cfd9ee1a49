#include "queue/worker.hh"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "dispatch/process.hh"
#include "dispatch/result_cache.hh"
#include "fault/fault.hh"
#include "sweepio/codec.hh"

namespace cfl::queue
{

namespace
{

/** ResultCache is not thread-safe, and in-process workers share the
 *  coordinator's instance. One batch append per task: never held for
 *  long. */
std::mutex g_cacheMutex;

std::atomic<bool> g_signalQuit{false};
std::atomic<int> g_caughtSignal{0};

void
onQuitSignal(int sig)
{
    g_caughtSignal.store(sig);
    g_signalQuit.store(true);
}

bool
quitting(const WorkerOptions &opts)
{
    return opts.quit != nullptr && opts.quit->load();
}

/** Fold @p result_path's outcomes into the cache; a degraded store
 *  only warns (the task still completes, its outcomes unpersisted). */
void
writeBack(dispatch::ResultCache &cache, const std::string &result_path,
          const std::string &owner)
{
    const SweepResult result = sweepio::readResult(result_path);
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    for (const SweepOutcome &o : result.points)
        cache.insert(o);
    cache.flush();
    if (cache.degraded())
        cfl_warn("worker %s: cache write-back degraded; completing "
                 "tasks without persisting their outcomes",
                 owner.c_str());
}

} // namespace

const std::atomic<bool> &
quitOnSignal()
{
    struct sigaction action = {};
    action.sa_handler = onQuitSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    return g_signalQuit;
}

int
caughtSignal()
{
    return g_caughtSignal.load();
}

unsigned
runWorker(WorkQueue &queue, const WorkerOptions &opts)
{
    cfl_assert(opts.leaseSec >= 1, "lease must be >= 1s");
    cfl_assert(opts.pollMs >= 1, "poll interval must be positive");
    using Clock = std::chrono::steady_clock;
    const char *owner = opts.owner.c_str();
    Clock::time_point idle_since = Clock::now();
    unsigned tasks_done = 0;

    while (!quitting(opts)) {
        std::optional<TaskClaim> claim =
            queue.claim(opts.owner, opts.leaseSec);
        if (!claim) {
            if (queue.reclaimExpired() != 0)
                continue; // reclaimed something: claim it right away
            if (queue.stopRequested() && queue.pendingCount() == 0) {
                std::fprintf(stderr, "worker %s: stop requested, queue "
                             "drained (%u task(s) done), exiting\n",
                             owner, tasks_done);
                break;
            }
            if (opts.idleExitSec != 0 &&
                Clock::now() - idle_since >
                    std::chrono::seconds(opts.idleExitSec)) {
                std::fprintf(stderr, "worker %s: idle for %us (%u "
                             "task(s) done), exiting\n",
                             owner, opts.idleExitSec, tasks_done);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.pollMs));
            continue;
        }

        const sweepio::TaskRecord &task = claim->task;
        std::fprintf(stderr, "worker %s: claimed task %s\n", owner,
                     task.id.c_str());
        fault::checkpoint("worker.task.claimed");
        const Clock::time_point start = Clock::now();

        // Heartbeat from the command's wait loop. A lost lease (we
        // stalled past expiry and the task was reclaimed) aborts the
        // command: the re-claimed attempt is about to write the same
        // result file, and racing it would be worse than throwing our
        // partial work away.
        Clock::time_point last_beat = start;
        const auto beat_every =
            std::chrono::milliseconds(opts.leaseSec * 1000 / 3);
        bool lease_lost = false;
        const dispatch::RunStatus status = dispatch::runLocalCommand(
            task.command, opts.commandTimeoutSec, [&] {
                if (quitting(opts))
                    return false;
                if (Clock::now() - last_beat < beat_every)
                    return true;
                last_beat = Clock::now();
                lease_lost = !queue.heartbeat(*claim, opts.leaseSec);
                return !lease_lost;
            });
        idle_since = Clock::now();
        if (lease_lost) {
            cfl_warn("worker %s lost the lease on task %s (stalled past "
                     "expiry?); aborted the command — the task's new "
                     "owner completes it",
                     owner, task.id.c_str());
            continue;
        }
        if (quitting(opts)) {
            // Leave the claim as a dead worker would: its lease expires
            // and the task goes back to pending, costing the
            // coordinator no attempt.
            std::fprintf(stderr, "worker %s: quit; killed task %s, its "
                         "lease lapses for another worker\n",
                         owner, task.id.c_str());
            break;
        }

        int exit_code = status.exitCode;
        if (exit_code == 0 && !task.result.empty() &&
            !std::filesystem::exists(task.result)) {
            cfl_warn("task %s exited 0 but left no result file \"%s\"; "
                     "recording it as failed",
                     task.id.c_str(), task.result.c_str());
            exit_code = 1;
        }
        // Outcomes reach the shared cache *before* the completion
        // record: once a task reads as done, its work is durable.
        if (exit_code == 0 && opts.cache != nullptr && !task.result.empty())
            writeBack(*opts.cache, task.result, opts.owner);
        queue.complete(*claim, exit_code);
        fault::checkpoint("worker.task.completed");

        const std::chrono::duration<double> elapsed = Clock::now() - start;
        std::fprintf(stderr, "worker %s: task %s exit %d (%.2fs)\n",
                     owner, task.id.c_str(), exit_code, elapsed.count());
        ++tasks_done;
        if (opts.maxTasks != 0 && tasks_done >= opts.maxTasks) {
            std::fprintf(stderr, "worker %s: completed %u task(s), "
                         "exiting\n", owner, tasks_done);
            break;
        }
    }
    return tasks_done;
}

} // namespace cfl::queue
