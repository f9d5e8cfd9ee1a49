/**
 * @file
 * Line-oriented JSON codecs for the persistent work queue (src/queue).
 *
 * Three record shapes travel through the queue directory, all encoded
 * as single JSONL lines through the shared MiniJsonParser dialect
 * (json.hh) so a torn trailing line — a process killed mid-append —
 * degrades to a skip-with-warning in tolerant loaders instead of
 * wedging the store:
 *
 *   TaskRecord   — one unit of claimable work: a unique id, a FIFO
 *                  sequence number, the shell command a worker runs,
 *                  and (optionally) the result file whose outcomes the
 *                  worker folds into the result cache afterwards;
 *   LeaseRecord  — who holds a claimed task, since when, and until
 *                  when (wall-clock unix milliseconds — lease expiry
 *                  must be comparable across hosts);
 *   DoneRecord   — how a task ended (exit status, completing owner).
 *
 * The queue's tasks.jsonl log multiplexes task/done records as
 * QueueLogRecord lines tagged with an op ("enqueue", "cancel",
 * "reclaim", "quarantine", "done"), giving every queue directory an
 * auditable, greppable history.
 *
 * Every field is required and no other field is accepted on decode: a
 * record written in another layout is malformed, like a torn line.
 *
 * Unlike the sweep codec, the strings here (shell commands, file
 * paths, owners) are user-influenced, so encoding escapes '"' and '\\'
 * via escapeJsonString() — the only escapes the parser accepts back.
 * Every decode has a tryDecode variant for loaders that must survive a
 * torn line.
 */

#ifndef CFL_SWEEPIO_QUEUE_CODEC_HH
#define CFL_SWEEPIO_QUEUE_CODEC_HH

#include <cstdint>
#include <string>

namespace cfl::sweepio
{

/** One claimable unit of work. */
struct TaskRecord
{
    std::string id;       ///< unique task id (digest + attempt suffix)
    std::uint64_t seq = 0; ///< enqueue order; ties claim FIFO by seq
    std::string command;  ///< shell command the claiming worker runs
    /** Result file (confluence_sweep --out) whose outcomes the worker
     *  appends to the result cache after a clean exit; "" = none. */
    std::string result;
};

/** Ownership of one claimed task. */
struct LeaseRecord
{
    std::string id;    ///< task id this lease covers
    std::string owner; ///< claiming worker's identity
    /** Lease deadline, wall-clock unix milliseconds; a lease past its
     *  deadline may be reclaimed by anyone. */
    std::uint64_t deadlineMs = 0;
    /** When this lease (or its latest heartbeat renewal) was written,
     *  wall-clock unix ms. */
    std::uint64_t sinceMs = 0;
};

/** Terminal state of one task. */
struct DoneRecord
{
    std::string id;
    std::string owner;           ///< worker that completed the task
    std::uint64_t exitCode = 0;  ///< command exit; 128+sig for signals
};

/** One line of the queue's tasks.jsonl audit log. */
struct QueueLogRecord
{
    /** "enqueue" (task holds the full record), "cancel" / "reclaim" /
     *  "quarantine" (only task.id is meaningful), or "done" (done
     *  holds the record; task.id mirrors done.id). */
    std::string op;
    TaskRecord task;
    DoneRecord done;
};

std::string encodeTask(const TaskRecord &task);
TaskRecord decodeTask(const std::string &line);
bool tryDecodeTask(const std::string &line, TaskRecord *out);

std::string encodeLease(const LeaseRecord &lease);
LeaseRecord decodeLease(const std::string &line);
bool tryDecodeLease(const std::string &line, LeaseRecord *out);

std::string encodeDone(const DoneRecord &done);
DoneRecord decodeDone(const std::string &line);
bool tryDecodeDone(const std::string &line, DoneRecord *out);

std::string encodeQueueLog(const QueueLogRecord &record);
QueueLogRecord decodeQueueLog(const std::string &line);
bool tryDecodeQueueLog(const std::string &line, QueueLogRecord *out);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_QUEUE_CODEC_HH
