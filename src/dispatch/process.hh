/**
 * @file
 * Shell commands as child processes: the one process-spawn helper the
 * queue workers run every task through, plus the quoting helpers that
 * build their command lines (locally, or wrapped for ssh).
 */

#ifndef CFL_DISPATCH_PROCESS_HH
#define CFL_DISPATCH_PROCESS_HH

#include <functional>
#include <string>

namespace cfl::dispatch
{

/** How one command invocation ended. */
struct RunStatus
{
    int exitCode = 0;      ///< exit status; 128+sig for a signal death
    bool timedOut = false; ///< killed by the timeout or the poll tick

    bool ok() const { return !timedOut && exitCode == 0; }
};

/** @p text wrapped in single quotes, safe for /bin/sh. */
std::string shellQuote(const std::string &text);

/**
 * The ssh invocation that runs @p command on @p host: BatchMode (never
 * prompt), optional cd into @p remote_dir, the command itself quoted
 * once for the remote shell. Exposed so tests can pin the quoting.
 */
std::string sshWrapCommand(const std::string &host,
                           const std::string &remote_dir,
                           const std::string &command);

/**
 * Run @p command under /bin/sh -c, enforcing @p timeout_sec (0 = no
 * timeout) by SIGKILL. The shell runs in a process group of its own
 * and a kill hits the whole group, so nothing the command forked (the
 * shell may fork rather than exec it) outlives the kill. The group
 * also leaves the terminal's foreground group: a Ctrl-C aimed at the
 * caller does not reach the command. A non-empty @p poll_tick is
 * invoked every ~20ms while the child runs — the hook the queue worker
 * heartbeats its lease from without a second thread. Returning false
 * from the tick kills the group (reported as a timeout): the worker's
 * reaction to a lost lease, where racing the re-claimed attempt's
 * writes would be worse than stopping.
 */
RunStatus runLocalCommand(const std::string &command, unsigned timeout_sec,
                          const std::function<bool()> &poll_tick = {});

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_PROCESS_HH
