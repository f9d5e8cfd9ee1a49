#include "workloads/program.hh"

#include "common/logging.hh"

namespace cfl
{

double
Program::staticBranchDensity() const
{
    const std::size_t blocks = image.numBlocks();
    if (blocks == 0)
        return 0.0;
    return static_cast<double>(branches.size()) /
           static_cast<double>(blocks);
}

ProgramBuilder::ProgramBuilder(std::string name)
{
    program_.name = std::move(name);
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    labelAddrs_.push_back(0);
    labelBound_.push_back(false);
    return static_cast<Label>(labelAddrs_.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    cfl_assert(label < labelAddrs_.size(), "bind of unknown label");
    cfl_assert(!labelBound_[label], "label bound twice");
    labelAddrs_[label] = here();
    labelBound_[label] = true;
}

Addr
ProgramBuilder::here() const
{
    return program_.image.limit();
}

void
ProgramBuilder::emitStraight(unsigned count)
{
    for (unsigned i = 0; i < count; ++i)
        program_.image.append(encodeAlu());
}

std::uint32_t
ProgramBuilder::recordBranch(Addr pc, BranchInfo info)
{
    info.id = static_cast<std::uint32_t>(program_.branches.size());
    cfl_assert(info.id < Program::kBranchSlot, "too many static branches");
    program_.branches.push_back(info);
    branchPcs_.push_back(pc);
    return info.id;
}

void
ProgramBuilder::emitCondTo(Label label, double bias)
{
    // Emit with a zero displacement; the fixup pass patches it.
    const Addr pc = program_.image.append(encodeDirect(BranchKind::Cond, 0));
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.bias = bias;
    fixups_.push_back({recordBranch(pc, info), label});
}

void
ProgramBuilder::emitLoopBack(Addr head, std::uint8_t trip_base,
                             std::uint8_t trip_range)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(head) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Cond, disp));
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.target = head;
    info.isLoopBack = true;
    info.tripBase = trip_base;
    info.tripRange = trip_range;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitJumpTo(Label label)
{
    const Addr pc =
        program_.image.append(encodeDirect(BranchKind::Uncond, 0));
    BranchInfo info;
    info.kind = BranchKind::Uncond;
    fixups_.push_back({recordBranch(pc, info), label});
}

void
ProgramBuilder::emitJumpBack(Addr target)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(target) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Uncond, disp));
    BranchInfo info;
    info.kind = BranchKind::Uncond;
    info.target = target;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitCallTo(Addr callee)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(callee) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Call, disp));
    BranchInfo info;
    info.kind = BranchKind::Call;
    info.target = callee;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitIndirectCall(std::uint32_t set_id)
{
    const Addr pc = program_.image.append(
        encodeIndirect(BranchKind::IndCall,
                       static_cast<std::uint16_t>(set_id)));
    BranchInfo info;
    info.kind = BranchKind::IndCall;
    info.indirectSet = set_id;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitIndirectJump(std::uint32_t set_id)
{
    const Addr pc = program_.image.append(
        encodeIndirect(BranchKind::IndJump,
                       static_cast<std::uint16_t>(set_id)));
    BranchInfo info;
    info.kind = BranchKind::IndJump;
    info.indirectSet = set_id;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitReturn()
{
    const Addr pc = program_.image.append(encodeReturn());
    BranchInfo info;
    info.kind = BranchKind::Return;
    recordBranch(pc, info);
}

void
ProgramBuilder::alignBlock()
{
    program_.image.padToBlockBoundary();
}

std::uint32_t
ProgramBuilder::addIndirectSet(std::vector<Addr> targets)
{
    cfl_assert(!targets.empty(), "indirect set must not be empty");
    program_.indirectSets.push_back(std::move(targets));
    return static_cast<std::uint32_t>(program_.indirectSets.size() - 1);
}

void
ProgramBuilder::noteFunction(Addr entry, Addr limit, unsigned layer)
{
    program_.functions.push_back({entry, limit, layer});
}

void
ProgramBuilder::buildSlotTable()
{
    const CodeImage &image = program_.image;
    std::vector<std::uint32_t> &slots = program_.slots;
    slots.assign(image.numInsts(), 0);
    for (std::uint32_t id = 0; id < branchPcs_.size(); ++id) {
        const Addr pc = branchPcs_[id];
        cfl_assert(image.contains(pc), "branch %llx outside image",
                   static_cast<unsigned long long>(pc));
        std::uint32_t &slot = slots[(pc - image.base()) / kInstBytes];
        cfl_assert(slot == 0, "two branches recorded at %llx",
                   static_cast<unsigned long long>(pc));
        slot = Program::kBranchSlot | id;
    }

    // Back to front, so each non-branch slot extends the run after it.
    // Every slot is checked against its decoded word: a slot has
    // metadata exactly when its word decodes to a branch, of that kind.
    std::uint32_t run = 0;
    for (std::size_t i = slots.size(); i-- > 0;) {
        const Addr pc = image.base() + i * kInstBytes;
        const BranchKind kind = decodeKind(image.at(pc));
        if ((slots[i] & Program::kBranchSlot) != 0) {
            const BranchInfo &info =
                program_.branches[slots[i] & ~Program::kBranchSlot];
            cfl_assert(kind == info.kind,
                       "%s word at %llx carries %s metadata",
                       branchKindName(kind).c_str(),
                       static_cast<unsigned long long>(pc),
                       branchKindName(info.kind).c_str());
            run = 0;
        } else {
            cfl_assert(kind == BranchKind::None,
                       "%s at %llx has no branch metadata",
                       branchKindName(kind).c_str(),
                       static_cast<unsigned long long>(pc));
            slots[i] = ++run;
        }
    }
}

Program
ProgramBuilder::finish(Addr entry, Addr dispatch_call_pc,
                       std::vector<Addr> handlers,
                       unsigned num_request_types)
{
    cfl_assert(!finished_, "ProgramBuilder::finish called twice");
    finished_ = true;

    for (const Fixup &fx : fixups_) {
        cfl_assert(labelBound_[fx.label], "unbound label in fixup");
        BranchInfo &info = program_.branches[fx.id];
        const Addr pc = branchPcs_[fx.id];
        info.target = labelAddrs_[fx.label];
        const std::int64_t disp =
            (static_cast<std::int64_t>(info.target) -
             static_cast<std::int64_t>(pc)) /
            static_cast<std::int64_t>(kInstBytes);
        program_.image.patch(pc, encodeDirect(info.kind, disp));
    }
    buildSlotTable();

    program_.entry = entry;
    program_.dispatchCallPc = dispatch_call_pc;
    program_.handlers = std::move(handlers);
    program_.numRequestTypes = num_request_types;

    // Validate: every direct target must land inside the image.
    for (const BranchInfo &info : program_.branches) {
        if (hasDirectTarget(info.kind)) {
            cfl_assert(program_.image.contains(info.target),
                       "branch %llx targets outside image",
                       static_cast<unsigned long long>(
                           branchPcs_[info.id]));
        }
    }
    for (const auto &set : program_.indirectSets) {
        for (const Addr t : set) {
            cfl_assert(program_.image.contains(t),
                       "indirect target outside image");
        }
    }

    return std::move(program_);
}

} // namespace cfl
