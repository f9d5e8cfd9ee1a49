/**
 * @file
 * Static program representation for the synthetic scale-out workloads.
 *
 * A Program bundles the code image with the oracle metadata the execution
 * engine needs to steer control flow: per-branch behaviour parameters
 * (bias, loop trip counts, indirect target sets) and the request dispatch
 * structure (entry loop + request handler entry points).
 *
 * Branch metadata lives in a dense array indexed by BranchInfo::id, and
 * a slot table with one word per image instruction maps a PC to it: a
 * branch slot holds a tag bit plus the id, any other slot the length of
 * the straight-line run of non-branches starting there. branchAt() is
 * one bounds check and two array loads, and trace generation fills a
 * whole run at once from straightRunAt(). ProgramBuilder::finish()
 * builds the table and checks it against the decoded image words.
 *
 * The front-end simulator never reads this metadata directly — it sees
 * only the dynamic instruction stream and the raw code image, exactly like
 * hardware.
 */

#ifndef CFL_WORKLOADS_PROGRAM_HH
#define CFL_WORKLOADS_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/code_image.hh"
#include "isa/inst.hh"

namespace cfl
{

/** Oracle behaviour metadata for one static branch site. */
struct BranchInfo
{
    BranchKind kind = BranchKind::None;
    Addr target = 0;               ///< direct target (Cond/Uncond/Call)
    double bias = 0.5;             ///< P(taken) shaping for Cond branches
    bool isLoopBack = false;       ///< Cond backedge of a loop
    std::uint8_t tripBase = 0;     ///< minimum loop trip count
    std::uint8_t tripRange = 0;    ///< trip varies in [base, base+range]
    std::uint32_t indirectSet = 0; ///< index into Program::indirectSets
    std::uint32_t id = 0;          ///< dense static branch id
};

/** A function's layout metadata (for reporting and tests). */
struct FunctionInfo
{
    Addr entry = 0;
    Addr limit = 0;        ///< one past the last instruction
    unsigned layer = 0;    ///< software-stack layer (0 = request handlers)
};

/** A complete synthetic program. */
struct Program
{
    std::string name;
    CodeImage image;

    /** Branch-site oracle metadata, indexed by BranchInfo::id. */
    std::vector<BranchInfo> branches;

    /** Slot-table tag of a branch slot; the low bits hold its id. */
    static constexpr std::uint32_t kBranchSlot = 1u << 31;

    /**
     * One word per image instruction, indexed by (pc - base) / 4: a
     * branch slot holds kBranchSlot | id, any other slot the number of
     * consecutive non-branch instructions starting there (at least 1).
     */
    std::vector<std::uint32_t> slots;

    /** Target sets for indirect branches. */
    std::vector<std::vector<Addr>> indirectSets;

    /** Entry of the top-level dispatch loop. */
    Addr entry = 0;

    /** PC of the dispatcher's indirect call (request boundary marker). */
    Addr dispatchCallPc = 0;

    /** Request handler entry points (targets of the dispatch call). */
    std::vector<Addr> handlers;

    /** Number of distinct request types the workload serves. */
    unsigned numRequestTypes = 1;

    /** All functions, for analysis. */
    std::vector<FunctionInfo> functions;

    Program() : image(0x10000) {}

    /** Metadata of the branch at @p pc, or nullptr if none is there. */
    const BranchInfo *branchAt(Addr pc) const
    {
        const std::uint32_t slot = slotAt(pc);
        return (slot & kBranchSlot) != 0 ? &branches[slot & ~kBranchSlot]
                                         : nullptr;
    }

    /**
     * Number of consecutive non-branch instructions starting at @p pc;
     * 0 at a branch or outside the image.
     */
    std::uint32_t straightRunAt(Addr pc) const
    {
        const std::uint32_t slot = slotAt(pc);
        return (slot & kBranchSlot) != 0 ? 0 : slot;
    }

    /** Static branch-per-block density over the whole image. */
    double staticBranchDensity() const;

    /** Number of static branch sites. */
    std::size_t numStaticBranches() const { return branches.size(); }

  private:
    /** Slot word of @p pc; 0 (an empty run) for an unaligned PC or one
     *  outside the image. */
    std::uint32_t slotAt(Addr pc) const
    {
        const Addr off = pc - image.base();
        const Addr idx = off / kInstBytes;
        if (off % kInstBytes != 0 || idx >= slots.size())
            return 0;
        return slots[idx];
    }
};

/**
 * Incremental program builder used by the workload generator.
 *
 * The builder emits instructions sequentially and resolves forward
 * branch targets with labels + fixups.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** An opaque forward-reference label. */
    using Label = std::uint32_t;

    /** Create an unbound label. */
    Label newLabel();

    /** Bind @p label to the current emission address. */
    void bind(Label label);

    /** Current emission address. */
    Addr here() const;

    /** Emit @p count non-branch instructions. */
    void emitStraight(unsigned count);

    /** Emit a conditional branch to @p label with taken-bias @p bias. */
    void emitCondTo(Label label, double bias);

    /** Emit a conditional loop backedge to an already-bound address. */
    void emitLoopBack(Addr head, std::uint8_t trip_base,
                      std::uint8_t trip_range);

    /** Emit an unconditional jump to @p label. */
    void emitJumpTo(Label label);

    /** Emit an unconditional jump to an already-bound address. */
    void emitJumpBack(Addr target);

    /** Emit a direct call to an address resolved later via patchCalls. */
    void emitCallTo(Addr callee);

    /** Emit an indirect call through target set @p set_id. */
    void emitIndirectCall(std::uint32_t set_id);

    /** Emit an indirect jump through target set @p set_id. */
    void emitIndirectJump(std::uint32_t set_id);

    /** Emit a return. */
    void emitReturn();

    /** Align to the next 64B block boundary (function alignment). */
    void alignBlock();

    /** Register an indirect target set; returns its id. */
    std::uint32_t addIndirectSet(std::vector<Addr> targets);

    /** Record a function's extent. */
    void noteFunction(Addr entry, Addr limit, unsigned layer);

    /**
     * Resolve all labels, verify every branch target is inside the image,
     * and return the finished program. The builder must not be used after.
     */
    Program finish(Addr entry, Addr dispatch_call_pc,
                   std::vector<Addr> handlers, unsigned num_request_types);

  private:
    struct Fixup
    {
        std::uint32_t id;   ///< the branch's BranchInfo::id
        Label label;
    };

    /** Append @p info as the next branch id; returns that id. */
    std::uint32_t recordBranch(Addr pc, BranchInfo info);

    /** Build Program::slots and check it against the image words. */
    void buildSlotTable();

    Program program_;
    std::vector<Addr> labelAddrs_;
    std::vector<bool> labelBound_;
    std::vector<Fixup> fixups_;
    std::vector<Addr> branchPcs_;   ///< indexed by branch id
    bool finished_ = false;
};

} // namespace cfl

#endif // CFL_WORKLOADS_PROGRAM_HH
