/**
 * @file
 * The queue worker loop: claim -> heartbeat -> run -> cache -> complete.
 *
 * The one worker implementation. confluence_worker runs it as a
 * daemon; runDispatchedSweep (dispatch/dispatcher.hh) runs it on
 * in-process threads for a local dispatch; tests run it directly.
 *
 * Each iteration claims a task (the lease + atomic-rename protocol in
 * queue.hh means no two workers ever run the same one), runs its
 * command through /bin/sh while heartbeating the lease every lease/3
 * from the command's wait loop, folds the shard's outcomes into the
 * result cache, and only then records completion. Because completed
 * work lands in the cache *before* the done record, a coordinator can
 * be SIGKILLed at any moment and a restarted one resumes from the
 * queue + cache without re-evaluating anything.
 *
 * Death points for chaos runs: "worker.task.claimed" (claim held,
 * command unrun: pure lease-expiry recovery) and
 * "worker.task.completed" (between durable completion and the next
 * claim).
 */

#ifndef CFL_QUEUE_WORKER_HH
#define CFL_QUEUE_WORKER_HH

#include <atomic>
#include <string>

#include "queue/queue.hh"

namespace cfl::dispatch
{
class ResultCache;
}

namespace cfl::queue
{

struct WorkerOptions
{
    std::string owner;          ///< lease owner identity
    unsigned leaseSec = 60;     ///< lease per claim and heartbeat
    unsigned pollMs = 200;      ///< idle poll interval
    unsigned idleExitSec = 0;   ///< return after this long idle (0 = never)
    unsigned maxTasks = 0;      ///< return after this many tasks (0 = no cap)
    /** Kill a task's command after this long (0 = never); it then
     *  completes with exit 137. */
    unsigned commandTimeoutSec = 0;
    /** Where a task's result-file outcomes go before it is marked
     *  done (nullptr = no cache). Workers of one process may share an
     *  instance: write-back is serialized process-wide. */
    dispatch::ResultCache *cache = nullptr;
    /** Set by the owner to end the loop at once: an idle worker
     *  returns; a running command is killed and its task left claimed,
     *  so the lease expires and another worker reruns it without the
     *  coordinator counting a failed attempt. nullptr = run until a
     *  condition above. */
    const std::atomic<bool> *quit = nullptr;
};

/**
 * Serve @p queue until its stop marker is present and nothing is
 * pending, or a WorkerOptions limit or quit ends the loop. Returns the
 * number of tasks completed.
 */
unsigned runWorker(WorkQueue &queue, const WorkerOptions &opts);

/**
 * Route SIGINT and SIGTERM to the returned flag, for WorkerOptions::quit,
 * instead of the default process death. A task command runs in a
 * process group of its own (dispatch::runLocalCommand), out of reach of
 * a terminal's Ctrl-C; a worker that sees the flag kills that group, so
 * a caller that exits with 128 + caughtSignal() afterwards leaves
 * nothing running. Installs the handlers on every call; returns one
 * flag.
 */
const std::atomic<bool> &quitOnSignal();

/** The signal that set quitOnSignal()'s flag, or 0. */
int caughtSignal();

} // namespace cfl::queue

#endif // CFL_QUEUE_WORKER_HH
