#include "trace/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_buffer.hh"
#include "workloads/generator.hh"

namespace cfl
{

ExecEngine::ExecEngine(const Program &program, const EngineParams &params)
    : program_(program),
      behavior_(params.branchNoise),
      rng_(params.seed),
      zipfSkew_(params.zipfSkew),
      params_(params),
      pc_(program.entry)
{
    cfl_assert(program_.image.contains(pc_), "program entry outside image");
    cfl_assert(!program_.handlers.empty(), "program has no request handlers");
    stack_.reserve(64);
}

ExecEngine::ExecEngine(const Program &program, const WorkloadParams &wparams,
                       std::uint64_t seed)
    : ExecEngine(program,
                 EngineParams{seed, wparams.zipfSkew, wparams.branchNoise})
{
}

void
ExecEngine::attachTrace(std::shared_ptr<const TraceBuffer> trace)
{
    cfl_assert(trace != nullptr, "attachTrace(nullptr)");
    cfl_assert(instCount_ == 0 && !hasPeek_,
               "attachTrace after instructions were consumed");
    trace_ = std::move(trace);
    traceCursor_ = 0;
    branchCursor_ = trace_->branchAtOrAfter(traceCursor_);
}

EngineSnapshot
ExecEngine::snapshot() const
{
    cfl_assert(trace_ == nullptr, "snapshot of a replaying engine");
    EngineSnapshot s;
    s.params = params_;
    s.rng = rng_;
    s.pc = pc_;
    s.stack = stack_;
    s.loopCounters = loopCounters_;
    s.requestType = requestType_;
    s.requestCount = requestCount_;
    s.instCount = instCount_;
    return s;
}

void
ExecEngine::restore(const EngineSnapshot &snap)
{
    rng_ = snap.rng;
    pc_ = snap.pc;
    stack_ = snap.stack;
    loopCounters_ = snap.loopCounters;
    requestType_ = snap.requestType;
    requestCount_ = snap.requestCount;
    cfl_assert(instCount_ == snap.instCount,
               "trace tail snapshot out of sync with replay cursor");
    trace_.reset();
    traceCursor_ = 0;
    branchCursor_ = 0;
}

void
ExecEngine::syncBranchCursor()
{
    // After a region a few steps reach it; after a long skip a binary
    // search over the rest is cheaper. The sentinel record's position
    // is the trace length, so the steps never run off the end.
    for (int k = 0; k < 8; ++k) {
        if (trace_->posAt(branchCursor_) >= traceCursor_)
            return;
        ++branchCursor_;
    }
    branchCursor_ = trace_->branchAtOrAfter(traceCursor_, branchCursor_);
}

void
ExecEngine::skipReplay(std::uint64_t n)
{
    cfl_assert(trace_ != nullptr && !hasPeek_,
               "skipReplay outside plain replay");
    cfl_assert(traceCursor_ + n <= trace_->size(),
               "skipReplay past the buffered prefix");
    traceCursor_ += n;
    instCount_ += n;
    syncBranchCursor();
}

void
ExecEngine::fastForward(std::uint64_t n)
{
    if (n == 0)
        return;
    if (hasPeek_) {
        // The buffered instruction was already produced; dropping it
        // consumes one of the n.
        hasPeek_ = false;
        --n;
    }
    while (n > 0) {
        if (trace_ != nullptr) {
            const std::uint64_t left = trace_->size() - traceCursor_;
            const std::uint64_t skip = std::min(n, left);
            traceCursor_ += skip;
            instCount_ += skip;
            n -= skip;
            if (n == 0) {
                syncBranchCursor();
                return;
            }
            // Prefix exhausted mid-skip: continue generating (and
            // discarding) from the buffer's tail state.
            restore(trace_->tailSnapshot());
        }
        generate();
        --n;
    }
}

void
ExecEngine::skipStraight(std::uint64_t n)
{
    cfl_assert(trace_ == nullptr && !hasPeek_,
               "skipStraight outside plain generation");
    cfl_assert(n <= program_.straightRunAt(pc_),
               "skipStraight of %llu over a branch at %llx",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(pc_));
    pc_ += n * kInstBytes;
    instCount_ += n;
}

void
ExecEngine::restoreSnapshot(const EngineSnapshot &snap)
{
    trace_.reset();
    traceCursor_ = 0;
    branchCursor_ = 0;
    hasPeek_ = false;
    rng_ = snap.rng;
    pc_ = snap.pc;
    stack_ = snap.stack;
    loopCounters_ = snap.loopCounters;
    requestType_ = snap.requestType;
    requestCount_ = snap.requestCount;
    instCount_ = snap.instCount;
}

const DynInst &
ExecEngine::peek()
{
    if (!hasPeek_) {
        step();
        hasPeek_ = true;
    }
    return cur_;
}

const DynInst &
ExecEngine::next()
{
    if (!hasPeek_)
        step();
    hasPeek_ = false;
    return cur_;
}

void
ExecEngine::step()
{
    if (trace_ != nullptr) {
        if (traceCursor_ < trace_->size()) {
            if (trace_->readInst(traceCursor_++, branchCursor_, cur_))
                ++branchCursor_;
            ++instCount_;
            return;
        }
        // Buffered prefix exhausted: continue generating from the
        // buffer's tail state; the combined stream is bit-identical to
        // one generated from scratch.
        restore(trace_->tailSnapshot());
    }
    generate();
}

void
ExecEngine::generate()
{
    const InstWord word = program_.image.at(pc_);
    const BranchKind kind = decodeKind(word);

    cur_ = DynInst{};
    cur_.pc = pc_;
    cur_.kind = kind;
    cur_.requestId = static_cast<std::uint32_t>(requestCount_);

    // Every branch kind carries metadata (ProgramBuilder::finish checks
    // it against the decoded image); look it up once, checked.
    const BranchInfo *info = nullptr;
    if (kind != BranchKind::None) {
        info = program_.branchAt(pc_);
        cfl_assert(info != nullptr, "%s without metadata at %llx",
                   branchKindName(kind).c_str(),
                   static_cast<unsigned long long>(pc_));
    }

    switch (kind) {
      case BranchKind::None:
        cur_.taken = false;
        break;

      case BranchKind::Cond: {
        if (info->isLoopBack) {
            // The backedge is taken until the per-invocation trip count is
            // reached, then falls through and resets.
            const std::uint32_t trip =
                behavior_.loopTrip(pc_, *info, requestType_);
            std::uint32_t &count = loopCounters_[pc_];
            ++count;
            if (count < trip) {
                cur_.taken = true;
            } else {
                cur_.taken = false;
                count = 0;
            }
        } else {
            cur_.taken =
                behavior_.conditionalOutcome(pc_, *info, requestType_, rng_);
        }
        cur_.target = info->target;
        break;
      }

      case BranchKind::Uncond:
        cur_.taken = true;
        cur_.target = info->target;
        break;

      case BranchKind::Call:
        cur_.taken = true;
        cur_.target = info->target;
        stack_.push_back(pc_ + kInstBytes);
        break;

      case BranchKind::IndCall:
      case BranchKind::IndJump: {
        const auto &targets = program_.indirectSets[info->indirectSet];
        if (pc_ == program_.dispatchCallPc) {
            // Request boundary: draw the next request type (Zipf over
            // types), then dispatch to that type's handler.
            ++requestCount_;
            requestType_ = static_cast<std::uint32_t>(
                rng_.nextZipf(program_.numRequestTypes, zipfSkew_));
            const std::size_t idx =
                hashMix(requestType_ * 0x9e3779b9ull) % targets.size();
            cur_.target = targets[idx];
        } else {
            const std::size_t idx = behavior_.indirectChoice(
                pc_, *info, requestType_, targets.size(), rng_);
            cur_.target = targets[idx];
        }
        cur_.taken = true;
        if (kind == BranchKind::IndCall)
            stack_.push_back(pc_ + kInstBytes);
        break;
      }

      case BranchKind::Return: {
        cfl_assert(!stack_.empty(), "return with empty call stack at %llx",
                   static_cast<unsigned long long>(pc_));
        cur_.taken = true;
        cur_.target = stack_.back();
        stack_.pop_back();
        break;
      }
    }

    pc_ = cur_.nextPc();
    ++instCount_;
}

} // namespace cfl
