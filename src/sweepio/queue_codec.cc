#include "sweepio/queue_codec.hh"

#include <stdexcept>

#include "sweepio/json.hh"

namespace cfl::sweepio
{

namespace
{

class Parser : public MiniJsonParser
{
  public:
    explicit Parser(const std::string &text, bool throw_on_error = false)
        : MiniJsonParser(text, "queue record", throw_on_error)
    {
    }
};

// Parse the body of a record whose opening '{' has been consumed; the
// caller handles the surrounding context (standalone line vs embedded
// in a log record).

TaskRecord
parseTaskBody(Parser &p)
{
    TaskRecord task;
    task.id = p.namedString("id");
    p.expect(',');
    task.seq = p.namedNumber("seq");
    p.expect(',');
    task.command = p.namedString("command");
    p.expect(',');
    task.result = p.namedString("result");
    p.expect('}');
    return task;
}

DoneRecord
parseDoneBody(Parser &p)
{
    DoneRecord done;
    done.id = p.namedString("id");
    p.expect(',');
    done.owner = p.namedString("owner");
    p.expect(',');
    done.exitCode = p.namedNumber("exit");
    p.expect('}');
    return done;
}

void
appendTaskBody(std::string &line, const TaskRecord &task)
{
    line += "{\"id\":\"";
    line += escapeJsonString(task.id);
    line += "\",\"seq\":";
    line += std::to_string(task.seq);
    line += ",\"command\":\"";
    line += escapeJsonString(task.command);
    line += "\",\"result\":\"";
    line += escapeJsonString(task.result);
    line += "\"}";
}

void
appendDoneBody(std::string &line, const DoneRecord &done)
{
    line += "{\"id\":\"";
    line += escapeJsonString(done.id);
    line += "\",\"owner\":\"";
    line += escapeJsonString(done.owner);
    line += "\",\"exit\":";
    line += std::to_string(done.exitCode);
    line += "}";
}

/** Run @p parse over @p line, reporting malformed input as false. */
template <typename Record, typename Parse>
bool
tryDecode(const std::string &line, Record *out, Parse &&parse)
{
    Parser p(line, /*throw_on_error=*/true);
    try {
        *out = parse(p);
        return true;
    } catch (const std::runtime_error &) {
        return false;
    }
}

} // namespace

std::string
encodeTask(const TaskRecord &task)
{
    std::string line;
    appendTaskBody(line, task);
    return line;
}

TaskRecord
decodeTask(const std::string &line)
{
    Parser p(line);
    p.expect('{');
    const TaskRecord task = parseTaskBody(p);
    p.end();
    return task;
}

bool
tryDecodeTask(const std::string &line, TaskRecord *out)
{
    return tryDecode(line, out, [](Parser &p) {
        p.expect('{');
        const TaskRecord task = parseTaskBody(p);
        p.end();
        return task;
    });
}

namespace
{

LeaseRecord
parseLease(Parser &p)
{
    LeaseRecord lease;
    p.expect('{');
    lease.id = p.namedString("id");
    p.expect(',');
    lease.owner = p.namedString("owner");
    p.expect(',');
    lease.deadlineMs = p.namedNumber("deadline_ms");
    p.expect(',');
    lease.sinceMs = p.namedNumber("since_ms");
    p.expect('}');
    p.end();
    return lease;
}

} // namespace

std::string
encodeLease(const LeaseRecord &lease)
{
    std::string line = "{\"id\":\"";
    line += escapeJsonString(lease.id);
    line += "\",\"owner\":\"";
    line += escapeJsonString(lease.owner);
    line += "\",\"deadline_ms\":";
    line += std::to_string(lease.deadlineMs);
    line += ",\"since_ms\":";
    line += std::to_string(lease.sinceMs);
    line += "}";
    return line;
}

LeaseRecord
decodeLease(const std::string &line)
{
    Parser p(line);
    return parseLease(p);
}

bool
tryDecodeLease(const std::string &line, LeaseRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseLease(p); });
}

std::string
encodeDone(const DoneRecord &done)
{
    std::string line;
    appendDoneBody(line, done);
    return line;
}

DoneRecord
decodeDone(const std::string &line)
{
    Parser p(line);
    p.expect('{');
    const DoneRecord done = parseDoneBody(p);
    p.end();
    return done;
}

bool
tryDecodeDone(const std::string &line, DoneRecord *out)
{
    return tryDecode(line, out, [](Parser &p) {
        p.expect('{');
        const DoneRecord done = parseDoneBody(p);
        p.end();
        return done;
    });
}

namespace
{

QueueLogRecord
parseQueueLog(Parser &p)
{
    QueueLogRecord record;
    p.expect('{');
    record.op = p.namedString("op");
    p.expect(',');
    if (record.op == "enqueue") {
        p.namedKey("task");
        p.expect('{');
        record.task = parseTaskBody(p);
    } else if (record.op == "done") {
        p.namedKey("done");
        p.expect('{');
        record.done = parseDoneBody(p);
        record.task.id = record.done.id;
    } else if (record.op == "cancel" || record.op == "reclaim" ||
               record.op == "quarantine") {
        record.task.id = p.namedString("id");
    } else {
        p.error("unknown queue log op \"" + record.op + "\"");
    }
    p.expect('}');
    p.end();
    return record;
}

} // namespace

std::string
encodeQueueLog(const QueueLogRecord &record)
{
    std::string line = "{\"op\":\"";
    line += escapeJsonString(record.op);
    line += "\",";
    if (record.op == "enqueue") {
        line += "\"task\":";
        appendTaskBody(line, record.task);
    } else if (record.op == "done") {
        line += "\"done\":";
        appendDoneBody(line, record.done);
    } else {
        line += "\"id\":\"";
        line += escapeJsonString(record.task.id);
        line += "\"";
    }
    line += "}";
    return line;
}

QueueLogRecord
decodeQueueLog(const std::string &line)
{
    Parser p(line);
    return parseQueueLog(p);
}

bool
tryDecodeQueueLog(const std::string &line, QueueLogRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseQueueLog(p); });
}

} // namespace cfl::sweepio
