/**
 * @file
 * Immutable, arena-backed SoA storage for a pre-generated oracle trace.
 *
 * A TraceBuffer captures the first N dynamic instructions an ExecEngine
 * with a given (program, params) pair would produce, laid out as five
 * parallel flat arrays (structure-of-arrays) carved out of one
 * contiguous arena allocation: pc, target, requestId, kind, taken.
 * Replay is a handful of indexed loads per instruction — no RNG, no
 * behavior model, no image decode — and the buffer is deeply const, so
 * any number of engines on any threads can replay one buffer
 * concurrently (the sharing the TraceCache exploits).
 *
 * The buffer also carries the generator state snapshot taken *after*
 * instruction N-1, so an engine that consumes past the buffered prefix
 * seamlessly resumes live generation with a bit-identical stream.
 *
 * Building a buffer steps the ExecEngine only at branches. Each
 * straight-line run (Program::straightRunAt) is written as one column
 * fill and skipped in the engine, so the stored stream equals the
 * per-instruction ExecEngine::next() stream bit for bit. The arena is
 * not value-initialised, since every byte is written, and it can come
 * from an evicted buffer of the same size (TraceCache reuses it already
 * faulted in).
 */

#ifndef CFL_TRACE_TRACE_BUFFER_HH
#define CFL_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/engine.hh"
#include "workloads/program.hh"

namespace cfl
{

/** The storage a TraceBuffer's columns are carved from. */
struct TraceArena
{
    std::unique_ptr<std::byte[]> bytes;
    std::uint64_t size = 0;
};

/** One immutable pre-generated instruction trace. */
class TraceBuffer
{
  public:
    /**
     * Generate the first @p num_insts instructions of
     * ExecEngine(program, params) into @p arena, which must then hold
     * exactly arenaBytesFor(num_insts) bytes, or into a fresh arena
     * when none is given.
     */
    TraceBuffer(const Program &program, const EngineParams &params,
                std::uint64_t num_insts, TraceArena arena = {});

    /** Take the arena of @p buf, which nothing else may reference. */
    static TraceArena reclaimArena(std::shared_ptr<TraceBuffer> buf);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Instructions stored. */
    std::uint64_t size() const { return numInsts_; }

    /** Load instruction @p i into @p out. */
    void
    read(std::uint64_t i, DynInst &out) const
    {
        out.pc = pc_[i];
        out.target = target_[i];
        out.requestId = requestId_[i];
        out.kind = static_cast<BranchKind>(kind_[i]);
        out.taken = taken_[i] != 0;
    }

    /** PC of instruction @p i (region starts need only the pc column). */
    Addr pcAt(std::uint64_t i) const { return pc_[i]; }

    /** Taken flag of instruction @p i (touch-only walks need just this
     *  one column per branch). */
    bool takenAt(std::uint64_t i) const { return taken_[i] != 0; }

    /**
     * Branch-skip predecode index: the instruction indices of every
     * branch in the trace, ascending. Built once with the trace and
     * shared by every replayer, it lets a region walk jump from branch
     * to branch instead of materializing each non-branch instruction.
     */
    const std::uint32_t *branchPositions() const
    {
        return branchPos_.data();
    }

    /** Number of entries in branchPositions(). */
    std::uint64_t numBranches() const { return branchPos_.size(); }

    /** Generator state after the last stored instruction. */
    const EngineSnapshot &tailSnapshot() const { return tail_; }

    /** The parameters the trace was generated with. */
    const EngineParams &params() const { return tail_.params; }

    /** Arena footprint in bytes (for cache budgeting). */
    std::uint64_t arenaBytes() const { return arena_.size; }

    /** Arena bytes a buffer of @p num_insts instructions will occupy. */
    static std::uint64_t
    arenaBytesFor(std::uint64_t num_insts)
    {
        return num_insts * (2 * sizeof(Addr) + sizeof(std::uint32_t) +
                            2 * sizeof(std::uint8_t));
    }

  private:
    std::uint64_t numInsts_;
    TraceArena arena_;

    // Column views into the arena.
    const Addr *pc_ = nullptr;
    const Addr *target_ = nullptr;
    const std::uint32_t *requestId_ = nullptr;
    const std::uint8_t *kind_ = nullptr;
    const std::uint8_t *taken_ = nullptr;

    /** Instruction indices of every branch, ascending (predecode). */
    std::vector<std::uint32_t> branchPos_;

    EngineSnapshot tail_;
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_BUFFER_HH
