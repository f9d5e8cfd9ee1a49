/**
 * @file
 * Immutable, branch-only storage for a pre-generated oracle trace.
 *
 * A TraceBuffer captures the first N dynamic instructions an ExecEngine
 * with a given (program, params) pair would produce. Only the branches
 * are stored, one 24-byte TraceBranch record each (position, pc,
 * target, request id, kind, taken); at 0.17-0.26 branches per
 * instruction that is 4-7 bytes per instruction. Every other
 * instruction is implied: between two branches the stream runs
 * straight, so a non-branch at index i before branch h is
 * {pc_h - 4 * (pos_h - i), None, not taken, target 0, requestId_h}
 * (the request count only changes at a branch, the dispatch call).
 * A sentinel record after the last branch carries the tail's pc and
 * request count, so the same rule covers the instructions after it.
 *
 * Replay is a few loads per instruction — no RNG, no behavior model,
 * no image decode — and the buffer is deeply const, so any number of
 * engines on any threads can replay one buffer concurrently (the
 * sharing the TraceCache exploits). Readers address branches by their
 * ordinal (0 .. numBranches()-1) and find the branch at or after an
 * instruction with branchAtOrAfter().
 *
 * The buffer also carries the generator state snapshot taken *after*
 * instruction N-1, so an engine that consumes past the buffered prefix
 * seamlessly resumes live generation with a bit-identical stream.
 *
 * Building a buffer steps the ExecEngine only at branches and skips
 * each straight-line run (Program::straightRunAt) in one call, so the
 * stored stream equals the per-instruction ExecEngine::next() stream
 * bit for bit. The records go into an anonymous mapping of the
 * every-instruction-a-branch bound, written front to back and then
 * trimmed to the pages used: no copy, and the pages go back to the
 * system when the buffer dies.
 */

#ifndef CFL_TRACE_TRACE_BUFFER_HH
#define CFL_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "trace/engine.hh"
#include "workloads/program.hh"

namespace cfl
{

/** One stored branch of a TraceBuffer. */
struct TraceBranch
{
    Addr pc;
    Addr target;
    std::uint32_t pos;             ///< instruction index in the trace
    std::uint32_t requestId : 28;  ///< checked to fit when built
    std::uint32_t kind : 3;        ///< BranchKind
    std::uint32_t taken : 1;
};

static_assert(sizeof(TraceBranch) == 24, "TraceBranch must stay packed");

/** One immutable pre-generated instruction trace. */
class TraceBuffer
{
  public:
    /**
     * Generate the first @p num_insts instructions of
     * ExecEngine(program, params).
     */
    TraceBuffer(const Program &program, const EngineParams &params,
                std::uint64_t num_insts);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Instructions stored. */
    std::uint64_t size() const { return numInsts_; }

    /** Branches stored. */
    std::uint64_t numBranches() const { return numBranches_; }

    /** Instruction index of branch @p b; size() for b == numBranches(). */
    std::uint64_t posAt(std::uint64_t b) const { return branches_[b].pos; }

    /** PC of branch @p b. */
    Addr pcAt(std::uint64_t b) const { return branches_[b].pc; }

    /** Taken flag of branch @p b. */
    bool takenAt(std::uint64_t b) const { return branches_[b].taken != 0; }

    /** Load branch @p b into @p out. */
    void
    read(std::uint64_t b, DynInst &out) const
    {
        const TraceBranch &r = branches_[b];
        out.pc = r.pc;
        out.kind = static_cast<BranchKind>(r.kind);
        out.taken = r.taken != 0;
        out.target = r.target;
        out.requestId = r.requestId;
    }

    /**
     * Ordinal of the first branch at or after instruction @p i
     * (numBranches() when none is), searching from ordinal @p from.
     */
    std::uint64_t branchAtOrAfter(std::uint64_t i,
                                  std::uint64_t from = 0) const;

    /**
     * PC of instruction @p i, where @p h = branchAtOrAfter(i): the
     * stream runs straight from i up to branch h (or the tail).
     */
    Addr
    instPc(std::uint64_t i, std::uint64_t h) const
    {
        const TraceBranch &r = branches_[h];
        return r.pc - (r.pos - i) * kInstBytes;
    }

    /**
     * Load instruction @p i into @p out, where @p h =
     * branchAtOrAfter(i). True when it is branch h itself.
     */
    bool
    readInst(std::uint64_t i, std::uint64_t h, DynInst &out) const
    {
        const TraceBranch &r = branches_[h];
        if (r.pos == i) {
            read(h, out);
            return true;
        }
        out = DynInst{};
        out.pc = instPc(i, h);
        out.requestId = r.requestId;
        return false;
    }

    /** Generator state after the last stored instruction. */
    const EngineSnapshot &tailSnapshot() const { return tail_; }

    /** The parameters the trace was generated with. */
    const EngineParams &params() const { return tail_.params; }

    /** Bytes this buffer occupies, its tail snapshot included. */
    std::uint64_t footprintBytes() const;

    /**
     * Upper bound on the branch records of a @p num_insts-instruction
     * buffer (every instruction a branch). The tail snapshot, a few
     * KB, is not bounded in advance.
     */
    static std::uint64_t
    maxRecordBytesFor(std::uint64_t num_insts)
    {
        return (num_insts + 1) * sizeof(TraceBranch);
    }

  private:
    /** Unmaps the record pages. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(TraceBranch *records) const;
    };

    std::uint64_t numInsts_;
    std::uint64_t numBranches_ = 0;
    /** Every branch in stream order, then the tail sentinel. */
    std::unique_ptr<TraceBranch[], Unmap> branches_;
    EngineSnapshot tail_;
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_BUFFER_HH
