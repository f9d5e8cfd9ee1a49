#include "trace/trace_buffer.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "common/logging.hh"

namespace cfl
{

namespace
{

constexpr std::uint64_t kMaxRequestId = (1ull << 28) - 1;

std::size_t
pageAlign(std::size_t bytes)
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

TraceBranch
makeRecord(Addr pc, Addr target, std::uint64_t pos,
           std::uint64_t request_id, BranchKind kind, bool taken)
{
    cfl_assert(request_id <= kMaxRequestId,
               "request id %llu too large for a trace record",
               static_cast<unsigned long long>(request_id));
    TraceBranch r;
    r.pc = pc;
    r.target = target;
    r.pos = static_cast<std::uint32_t>(pos);
    r.requestId = static_cast<std::uint32_t>(request_id);
    r.kind = static_cast<std::uint32_t>(kind);
    r.taken = taken ? 1 : 0;
    return r;
}

} // namespace

TraceBuffer::TraceBuffer(const Program &program, const EngineParams &params,
                         std::uint64_t num_insts)
    : numInsts_(num_insts)
{
    cfl_assert(num_insts > 0, "empty trace buffer");
    cfl_assert(num_insts < ~std::uint32_t{0},
               "trace too long for the 32-bit branch position");

    // Map the bound; only the pages the records reach are ever touched.
    const std::size_t mapped = pageAlign(maxRecordBytesFor(num_insts));
    void *pages = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (pages == MAP_FAILED)
        throw std::bad_alloc();
    branches_ = std::unique_ptr<TraceBranch[], Unmap>(
        static_cast<TraceBranch *>(pages), Unmap{mapped});

    ExecEngine engine(program, params);
    std::uint64_t i = 0;
    while (i < num_insts) {
        const std::uint64_t run = std::min<std::uint64_t>(
            program.straightRunAt(engine.generationPc()), num_insts - i);
        if (run == 0) {
            // A branch (or a PC outside the image, which next() rejects).
            const DynInst &inst = engine.next();
            cfl_assert(inst.isBranch(), "straight run of 0 at a non-branch");
            ::new (&branches_[numBranches_++])
                TraceBranch(makeRecord(inst.pc, inst.target, i,
                                       inst.requestId, inst.kind,
                                       inst.taken));
            ++i;
            continue;
        }
        engine.skipStraight(run);
        i += run;
    }
    tail_ = engine.snapshot();
    ::new (&branches_[numBranches_])
        TraceBranch(makeRecord(tail_.pc, 0, num_insts, tail_.requestCount,
                               BranchKind::None, false));

    // Trim the mapping to the pages in use (if the trim fails, the
    // whole mapping stays and is released with the buffer).
    const std::size_t used =
        pageAlign((numBranches_ + 1) * sizeof(TraceBranch));
    if (used < mapped &&
        munmap(static_cast<std::byte *>(pages) + used, mapped - used) == 0)
        branches_.get_deleter().bytes = used;
}

void
TraceBuffer::Unmap::operator()(TraceBranch *records) const
{
    munmap(records, bytes);
}

std::uint64_t
TraceBuffer::branchAtOrAfter(std::uint64_t i, std::uint64_t from) const
{
    // Past every branch the answer is the sentinel, numBranches().
    const TraceBranch *records = branches_.get();
    return std::lower_bound(records + from, records + numBranches_, i,
                            [](const TraceBranch &r, std::uint64_t v) {
                                return r.pos < v;
                            }) -
           records;
}

std::uint64_t
TraceBuffer::footprintBytes() const
{
    return sizeof(TraceBuffer) + branches_.get_deleter().bytes +
           tail_.stack.capacity() * sizeof(Addr) +
           tail_.loopCounters.heapBytes();
}

} // namespace cfl
