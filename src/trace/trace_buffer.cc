#include "trace/trace_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cfl
{

TraceBuffer::TraceBuffer(const Program &program, const EngineParams &params,
                         std::uint64_t num_insts, TraceArena arena)
    : numInsts_(num_insts), arena_(std::move(arena))
{
    cfl_assert(num_insts > 0, "empty trace buffer");
    cfl_assert(num_insts <= ~std::uint32_t{0},
               "trace too long for the 32-bit branch index");
    if (arena_.bytes == nullptr) {
        arena_.size = arenaBytesFor(num_insts);
        arena_.bytes = std::make_unique_for_overwrite<std::byte[]>(
            arena_.size);
    }
    cfl_assert(arena_.size == arenaBytesFor(num_insts),
               "arena of %llu bytes for a %llu-byte trace",
               static_cast<unsigned long long>(arena_.size),
               static_cast<unsigned long long>(arenaBytesFor(num_insts)));

    // Carve the SoA columns out of the arena widest-first so every
    // column lands on its natural alignment.
    std::byte *base = arena_.bytes.get();
    auto *pc = reinterpret_cast<Addr *>(base);
    auto *target = reinterpret_cast<Addr *>(base + 8 * num_insts);
    auto *request_id =
        reinterpret_cast<std::uint32_t *>(base + 16 * num_insts);
    auto *kind = reinterpret_cast<std::uint8_t *>(base + 20 * num_insts);
    auto *taken = reinterpret_cast<std::uint8_t *>(base + 21 * num_insts);

    ExecEngine engine(program, params);
    std::uint64_t i = 0;
    while (i < num_insts) {
        const Addr run_pc = engine.generationPc();
        const std::uint64_t run = std::min<std::uint64_t>(
            program.straightRunAt(run_pc), num_insts - i);
        if (run == 0) {
            // A branch (or a PC outside the image, which next() rejects).
            const DynInst &inst = engine.next();
            pc[i] = inst.pc;
            target[i] = inst.target;
            request_id[i] = inst.requestId;
            kind[i] = static_cast<std::uint8_t>(inst.kind);
            taken[i] = inst.taken ? 1 : 0;
            if (inst.kind != BranchKind::None)
                branchPos_.push_back(static_cast<std::uint32_t>(i));
            ++i;
            continue;
        }
        // What run calls to next() would return, one column at a time.
        for (std::uint64_t k = 0; k < run; ++k)
            pc[i + k] = run_pc + k * kInstBytes;
        std::fill_n(target + i, run, Addr{0});
        std::fill_n(request_id + i, run,
                    static_cast<std::uint32_t>(engine.requestCount()));
        std::fill_n(kind + i, run,
                    static_cast<std::uint8_t>(BranchKind::None));
        std::fill_n(taken + i, run, std::uint8_t{0});
        engine.skipStraight(run);
        i += run;
    }
    tail_ = engine.snapshot();

    pc_ = pc;
    target_ = target;
    requestId_ = request_id;
    kind_ = kind;
    taken_ = taken;
}

TraceArena
TraceBuffer::reclaimArena(std::shared_ptr<TraceBuffer> buf)
{
    cfl_assert(buf != nullptr && buf.use_count() == 1,
               "reclaiming the arena of a shared trace buffer");
    return std::move(buf->arena_);
}

} // namespace cfl
