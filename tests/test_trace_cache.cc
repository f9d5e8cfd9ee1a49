/**
 * @file Tests for shared immutable traces: TraceBuffer replay fidelity,
 * TraceCache sharing/thread-safety/budget, bit-identity of cached
 * sweeps against the pre-cache golden pins, and the steady-state
 * allocation bound of a cached sweep (this binary counts every
 * global operator new).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "trace/trace_cache.hh"

using namespace cfl;

// ---------------------------------------------------------------------------
// Global allocation counter (this binary only).
// ---------------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_allocCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

EngineParams
paramsFor(WorkloadId wl, std::uint64_t seed)
{
    const WorkloadParams wp = workloadParams(wl);
    return EngineParams{seed, wp.zipfSkew, wp.branchNoise};
}

void
expectSameInst(const DynInst &a, const DynInst &b, std::uint64_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "inst " << i;
    ASSERT_EQ(a.kind, b.kind) << "inst " << i;
    ASSERT_EQ(a.taken, b.taken) << "inst " << i;
    ASSERT_EQ(a.target, b.target) << "inst " << i;
    ASSERT_EQ(a.requestId, b.requestId) << "inst " << i;
}

} // namespace

TEST(TraceBuffer, ReplayMatchesLiveGenerationIncludingTail)
{
    const WorkloadId wl = WorkloadId::DssQry;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x1234);

    // Buffer shorter than the run: the replaying engine must cross the
    // buffered prefix and continue generating, bit-identically.
    const std::uint64_t buffered = 1000;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    ASSERT_EQ(trace->size(), buffered);

    ExecEngine live(program, params);
    ExecEngine replay(program, params);
    replay.attachTrace(trace);
    EXPECT_TRUE(replay.replaying());

    for (std::uint64_t i = 0; i < 3 * buffered; ++i) {
        const DynInst a = live.next();
        const DynInst b = replay.next();
        expectSameInst(a, b, i);
        ASSERT_EQ(live.instCount(), replay.instCount()) << "inst " << i;
    }
    EXPECT_FALSE(replay.replaying()) << "tail continuation left replay mode";
}

TEST(TraceBuffer, BulkFillMatchesPerInstructionGeneration)
{
    // The buffer fills straight-line runs a column at a time and steps
    // the engine only at branches; per-instruction ExecEngine::next() is
    // the reference for every stored instruction, the branch index and
    // the tail state, on every preset.
    constexpr std::uint64_t kLen = 20'000;
    constexpr std::uint64_t kTail = 2'000;
    for (const WorkloadId wl : allWorkloads()) {
        for (const std::uint64_t seed : {0x1234ull, 0xbeefull}) {
            SCOPED_TRACE(workloadSlug(wl) + " seed " +
                         std::to_string(seed));
            const Program &program = workloadProgram(wl);
            const EngineParams params = paramsFor(wl, seed);
            ExecEngine live(program, params);
            std::vector<DynInst> ref;
            for (std::uint64_t i = 0; i < kLen + kTail; ++i)
                ref.push_back(live.next());
            const auto is_branch = [&ref](std::uint64_t i) {
                return ref[i].kind != BranchKind::None;
            };

            // Lengths that end inside a straight run (the run goes on
            // past the last stored instruction) and exactly on a branch.
            std::uint64_t in_run = kLen / 2;
            while (is_branch(in_run - 1) || is_branch(in_run))
                ++in_run;
            std::uint64_t on_branch = kLen / 3;
            while (!is_branch(on_branch - 1))
                ++on_branch;

            for (const std::uint64_t n : {std::uint64_t{1}, in_run,
                                          on_branch, kLen}) {
                SCOPED_TRACE("length " + std::to_string(n));
                auto buf =
                    std::make_shared<const TraceBuffer>(program, params, n);
                ASSERT_EQ(buf->size(), n);
                DynInst got;
                std::vector<std::uint32_t> branches;
                for (std::uint64_t i = 0; i < n; ++i) {
                    buf->read(i, got);
                    expectSameInst(ref[i], got, i);
                    if (is_branch(i))
                        branches.push_back(static_cast<std::uint32_t>(i));
                }
                ASSERT_EQ(buf->numBranches(), branches.size());
                EXPECT_TRUE(std::equal(branches.begin(), branches.end(),
                                       buf->branchPositions()));
                EXPECT_EQ(buf->tailSnapshot().instCount, n);

                // Tail continuation: replay crosses into live generation.
                ExecEngine replay(program, params);
                replay.attachTrace(buf);
                for (std::uint64_t i = 0; i < n + kTail; ++i)
                    expectSameInst(ref[i], replay.next(), i);
                EXPECT_FALSE(replay.replaying());
            }
        }
    }
}

TEST(TraceBuffer, PeekSemanticsMatchUnderReplay)
{
    const WorkloadId wl = WorkloadId::MediaStreaming;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x77);

    auto trace =
        std::make_shared<const TraceBuffer>(program, params, 512);
    ExecEngine live(program, params);
    ExecEngine replay(program, params);
    replay.attachTrace(trace);

    for (std::uint64_t i = 0; i < 1024; ++i) {
        expectSameInst(live.peek(), replay.peek(), i);
        expectSameInst(live.next(), replay.next(), i);
    }
}

TEST(TraceCache, SamePointSameBufferAcrossThreads)
{
    TraceCache cache(256ull << 20);
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const TraceBuffer>> got(kThreads);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &got, t] {
            got[t] = cache.acquire(WorkloadId::OltpDb2, 0xc0fe, 50'000);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_NE(got[0], nullptr);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get())
            << "same (workload, scale, seed) must share one buffer";
    EXPECT_EQ(cache.misses(), 1u) << "the trace is generated exactly once";
    EXPECT_EQ(cache.hits(), kThreads - 1);

    // A repeated acquire at the same length returns the same pointer.
    EXPECT_EQ(cache.acquire(WorkloadId::OltpDb2, 0xc0fe, 50'000).get(),
              got[0].get());
}

TEST(TraceCache, DifferentSeedsDiffer)
{
    TraceCache cache(256ull << 20);
    auto a = cache.acquire(WorkloadId::WebFrontend, 1, 20'000);
    auto b = cache.acquire(WorkloadId::WebFrontend, 2, 20'000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());

    // The streams themselves must diverge (same program, different RNG).
    bool diverged = false;
    DynInst ia, ib;
    for (std::uint64_t i = 0; i < a->size() && !diverged; ++i) {
        a->read(i, ia);
        b->read(i, ib);
        diverged = ia.pc != ib.pc || ia.taken != ib.taken ||
                   ia.target != ib.target;
    }
    EXPECT_TRUE(diverged);
}

TEST(TraceCache, ZeroBudgetBypasses)
{
    TraceCache cache(0);
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 7, 10'000), nullptr);
    EXPECT_EQ(cache.bypasses(), 1u);
    EXPECT_EQ(cache.lookups(), 1u);
    EXPECT_EQ(cache.cachedBytes(), 0u);
}

TEST(TraceCache, CountersPartitionLookups)
{
    // hits + misses + bypasses == lookups must hold at every step: each
    // acquire is classified as exactly one of the three.
    TraceCache cache(256ull << 20);
    const auto check = [&cache] {
        EXPECT_EQ(cache.hits() + cache.misses() + cache.bypasses(),
                  cache.lookups());
    };
    check();
    EXPECT_EQ(cache.lookups(), 0u);

    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);  // miss
    ASSERT_NE(a, nullptr);
    check();
    EXPECT_EQ(cache.misses(), 1u);

    auto b = cache.acquire(WorkloadId::DssQry, 1, 10'000);  // hit
    EXPECT_EQ(b.get(), a.get());
    check();
    EXPECT_EQ(cache.hits(), 1u);

    cache.acquire(WorkloadId::DssQry, 2, 10'000);  // second miss
    check();

    cache.setBudgetBytes(0);
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 3, 10'000), nullptr);
    check();
    EXPECT_EQ(cache.bypasses(), 1u);
    EXPECT_EQ(cache.lookups(), 4u);
}

TEST(TraceCache, PartitionHoldsUnderConcurrentAcquires)
{
    TraceCache cache(256ull << 20);
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, t] {
            // Two shared keys plus one per-thread key: exercises the
            // generation race (double-checked hit) and plain misses.
            cache.acquire(WorkloadId::OltpOracle, 1, 20'000);
            cache.acquire(WorkloadId::OltpOracle, 2, 20'000);
            cache.acquire(WorkloadId::OltpOracle, 100 + t, 20'000);
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.lookups(), 3u * kThreads);
    EXPECT_EQ(cache.hits() + cache.misses() + cache.bypasses(),
              cache.lookups());
}

TEST(TraceCache, BudgetEvictsIdleLru)
{
    // Budget fits roughly one rounded-up trace at a time.
    TraceCache cache(TraceBuffer::arenaBytesFor(1 << 16) + 1024);
    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(a, nullptr);
    a.reset();  // make it idle so it is evictable

    auto b = cache.acquire(WorkloadId::DssQry, 2, 10'000);
    ASSERT_NE(b, nullptr) << "idle LRU entry must be evicted to make room";

    // While b is still referenced it cannot be evicted, so a third
    // distinct trace is turned away rather than overcommitting.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 3, 10'000), nullptr);
    EXPECT_GE(cache.bypasses(), 1u);
}

TEST(TraceCache, EvictionHandsTheArenaToTheNextTrace)
{
    // Budget fits one single-granule trace: acquiring b evicts a.
    const WorkloadId wl = WorkloadId::OltpDb2;
    TraceCache cache(TraceBuffer::arenaBytesFor(1 << 16) + 1024);
    auto a = cache.acquire(wl, 1, 10'000);
    ASSERT_NE(a, nullptr);
    EXPECT_LE(cache.cachedBytes(), cache.budgetBytes());
    a.reset();  // idle, so evictable

    auto b = cache.acquire(wl, 2, 10'000);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.reusedArenas(), 1u) << "b must be built in a's arena";
    EXPECT_LE(cache.cachedBytes(), cache.budgetBytes());

    // Every byte of a's old arena was rewritten: b equals a fresh b,
    // column for column, branch for branch, and past its tail.
    const Program &program = workloadProgram(wl);
    auto fresh = std::make_shared<const TraceBuffer>(
        program, paramsFor(wl, 2), b->size());
    ASSERT_EQ(b->arenaBytes(), fresh->arenaBytes());
    DynInst x, y;
    for (std::uint64_t i = 0; i < b->size(); ++i) {
        b->read(i, x);
        fresh->read(i, y);
        expectSameInst(y, x, i);
    }
    ASSERT_EQ(b->numBranches(), fresh->numBranches());
    EXPECT_TRUE(std::equal(b->branchPositions(),
                           b->branchPositions() + b->numBranches(),
                           fresh->branchPositions()));
    ExecEngine from_b(program, paramsFor(wl, 2));
    ExecEngine from_fresh(program, paramsFor(wl, 2));
    from_b.attachTrace(b);
    from_fresh.attachTrace(fresh);
    for (std::uint64_t i = 0; i < b->size() + 1000; ++i)
        expectSameInst(from_fresh.next(), from_b.next(), i);

    // A buffer still referenced is never recycled.
    EXPECT_EQ(cache.acquire(wl, 3, 10'000), nullptr);
    EXPECT_EQ(cache.reusedArenas(), 1u);

    // Nor is an idle one of another size: it is freed instead.
    cache.setBudgetBytes(TraceBuffer::arenaBytesFor(2 << 16) + 1024);
    b.reset();
    auto c = cache.acquire(wl, 3, 100'000);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(cache.reusedArenas(), 1u);
    EXPECT_LE(cache.cachedBytes(), cache.budgetBytes());
}

TEST(TraceCache, FailedUpgradeKeepsShorterBuffer)
{
    // Budget fits one single-granule trace but not a two-granule one.
    TraceCache cache(TraceBuffer::arenaBytesFor(1 << 16) + 1024);
    auto small = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(small, nullptr);

    // Upgrading the same key beyond the budget must fail without
    // destroying the still-servable shorter buffer.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 1, 100'000), nullptr);
    auto again = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    EXPECT_EQ(again.get(), small.get())
        << "failed upgrade must not evict the shorter trace";
}

// ---------------------------------------------------------------------------
// Bit-identity against the golden pins: the same quick-scale sweep that
// tests/test_calibration.cc pins must produce identical numbers whether
// every point replays a shared cached trace or generates live.
// ---------------------------------------------------------------------------

namespace
{

SweepResult
goldenQuickSweep()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    SweepEngine engine(2);
    return runTimingSweep(
        {FrontendKind::Baseline, FrontendKind::Confluence},
        {WorkloadId::DssQry, WorkloadId::WebFrontend},
        makeSystemConfig(1), scale, engine);
}

} // namespace

TEST(TraceCacheGolden, CachedSweepIsBitIdenticalToLive)
{
    const std::uint64_t saved = traceCache().budgetBytes();

    traceCache().setBudgetBytes(0);  // live generation for every point
    const SweepResult live = goldenQuickSweep();

    traceCache().setBudgetBytes(1ull << 30);  // shared replay
    const SweepResult cached = goldenQuickSweep();

    traceCache().setBudgetBytes(saved);

    ASSERT_EQ(live.points.size(), cached.points.size());
    for (std::size_t i = 0; i < live.points.size(); ++i) {
        const CmpMetrics &a = live.points[i].metrics;
        const CmpMetrics &b = cached.points[i].metrics;
        ASSERT_EQ(a.cores.size(), b.cores.size());
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            EXPECT_EQ(a.cores[c].retired, b.cores[c].retired);
            EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
            EXPECT_EQ(a.cores[c].btbTakenMisses, b.cores[c].btbTakenMisses);
            EXPECT_EQ(a.cores[c].l1iDemandMisses,
                      b.cores[c].l1iDemandMisses);
            EXPECT_EQ(a.cores[c].fetchMissStallCycles,
                      b.cores[c].fetchMissStallCycles);
        }
    }

    // And both must still sit exactly on the pre-cache golden geomean
    // (tests/test_calibration.cc pins the same value).
    EXPECT_NEAR(cached.geomeanSpeedup(FrontendKind::Confluence,
                                      FrontendKind::Baseline),
                1.217584361106137, 1e-9);
}

// Once its traces are cached, a sweep allocates per point (building the
// machine), never per instruction: per-instruction allocation on the
// replay path would put this count in the hundreds.
TEST(TraceCacheGolden, WarmedCachedSweepAllocatesUnderFiftyPerKinst)
{
    const std::uint64_t saved = traceCache().budgetBytes();
    traceCache().setBudgetBytes(1ull << 30);
    const SweepResult warm = goldenQuickSweep();

    const std::uint64_t before = g_allocCount.load();
    const SweepResult steady = goldenQuickSweep();
    const std::uint64_t allocs = g_allocCount.load() - before;
    traceCache().setBudgetBytes(saved);

    double kinsts = 0.0;
    for (const SweepOutcome &o : steady.points)
        kinsts += static_cast<double>(o.point.scale.timingWarmupInsts +
                                      o.point.scale.timingMeasureInsts) *
                  o.point.scale.timingCores / 1e3;
    ASSERT_EQ(steady.points.size(), warm.points.size());
    ASSERT_GT(kinsts, 0.0);
    EXPECT_LE(allocs / kinsts, 50.0)
        << allocs << " allocations over " << kinsts
        << "k simulated instructions";
}
