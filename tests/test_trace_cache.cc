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
                std::vector<std::uint64_t> branches;
                for (std::uint64_t i = 0; i < n; ++i) {
                    const std::uint64_t h = buf->branchAtOrAfter(i);
                    ASSERT_EQ(buf->instPc(i, h), ref[i].pc) << "inst " << i;
                    ASSERT_EQ(buf->readInst(i, h, got), is_branch(i))
                        << "inst " << i;
                    expectSameInst(ref[i], got, i);
                    if (is_branch(i))
                        branches.push_back(i);
                }
                ASSERT_EQ(buf->numBranches(), branches.size());
                for (std::uint64_t b = 0; b < branches.size(); ++b) {
                    ASSERT_EQ(buf->posAt(b), branches[b]) << "branch " << b;
                    EXPECT_EQ(buf->pcAt(b), ref[branches[b]].pc);
                    EXPECT_EQ(buf->takenAt(b), ref[branches[b]].taken);
                    buf->read(b, got);
                    expectSameInst(ref[branches[b]], got, branches[b]);
                }
                EXPECT_EQ(buf->posAt(buf->numBranches()), n) << "sentinel";
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

namespace
{

/** Instructions a default-scale timing point replays per core: warmup
 *  plus measurement plus Cmp::prepareTraces' slack, rounded up to the
 *  cache's 64K-instruction granule. */
std::uint64_t
table1TraceLength()
{
    const RunScale scale;
    const std::uint64_t n =
        scale.timingWarmupInsts + scale.timingMeasureInsts + 4096;
    return (n + 0xffff) / 0x10000 * 0x10000;
}

} // namespace

TEST(TraceBuffer, FullLengthReplayMatchesLiveOnEveryPreset)
{
    // A default-scale stream of every preset, replayed through the
    // engine instruction by instruction and checked branch by branch
    // against live generation. Its footprint stays within 8 bytes per
    // instruction, branch records, sentinel and tail snapshot included.
    const std::uint64_t n = table1TraceLength();
    for (const WorkloadId wl : allWorkloads()) {
        SCOPED_TRACE(workloadSlug(wl));
        const Program &program = workloadProgram(wl);
        const EngineParams params = paramsFor(wl, 0x5eed);
        auto buf = std::make_shared<const TraceBuffer>(program, params, n);
        EXPECT_LE(buf->footprintBytes(), 8 * n)
            << static_cast<double>(buf->footprintBytes()) / n
            << " bytes per instruction";

        ExecEngine live(program, params);
        ExecEngine replay(program, params);
        replay.attachTrace(buf);
        std::uint64_t b = 0;
        DynInst stored;
        for (std::uint64_t i = 0; i < n; ++i) {
            const DynInst &want = live.next();
            expectSameInst(want, replay.next(), i);
            if (!want.isBranch())
                continue;
            ASSERT_EQ(buf->posAt(b), i) << "branch " << b;
            ASSERT_EQ(buf->pcAt(b), want.pc) << "branch " << b;
            ASSERT_EQ(buf->takenAt(b), want.taken) << "branch " << b;
            buf->read(b, stored);
            expectSameInst(want, stored, i);
            ++b;
        }
        EXPECT_EQ(b, buf->numBranches());
        EXPECT_TRUE(replay.replaying());
        expectSameInst(live.next(), replay.next(), n);
        EXPECT_FALSE(replay.replaying());
    }
}

TEST(TraceBuffer, RandomPeekSkipAndFastForwardMatchLive)
{
    // Random interleavings of peek, next, skipReplay and fastForward on
    // a short buffer, crossing its tail into live generation; the
    // engine's branch cursor must track its instruction cursor.
    constexpr std::uint64_t kBuffered = 30'000;
    constexpr std::uint64_t kStream = 3 * kBuffered;
    for (const WorkloadId wl : allWorkloads()) {
        SCOPED_TRACE(workloadSlug(wl));
        const Program &program = workloadProgram(wl);
        const EngineParams params = paramsFor(wl, 0xface);
        ExecEngine live(program, params);
        std::vector<DynInst> ref;
        for (std::uint64_t i = 0; i < kStream + 6000; ++i)
            ref.push_back(live.next());
        auto buf =
            std::make_shared<const TraceBuffer>(program, params, kBuffered);

        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            ExecEngine engine(program, params);
            engine.attachTrace(buf);
            Rng sched(seed);
            std::uint64_t pos = 0;
            while (pos < kStream) {
                if (engine.replaying()) {
                    ASSERT_EQ(engine.replayCursor(),
                              pos + engine.peekPending());
                    ASSERT_EQ(engine.replayBranchCursor(),
                              buf->branchAtOrAfter(engine.replayCursor()));
                }
                const std::uint64_t n = 1 + sched.nextBelow(
                    sched.nextBelow(8) == 0 ? 5000 : 40);
                switch (sched.nextBelow(4)) {
                  case 0:
                    expectSameInst(engine.peek(), ref[pos], pos);
                    break;
                  case 1:
                    expectSameInst(engine.next(), ref[pos], pos);
                    ++pos;
                    break;
                  case 2:
                    if (engine.replaying() && !engine.peekPending() &&
                        engine.replayCursor() + n <= buf->size()) {
                        engine.skipReplay(n);
                        pos += n;
                    }
                    break;
                  default:
                    engine.fastForward(n);
                    pos += n;
                    break;
                }
                ASSERT_EQ(engine.instCount() - engine.peekPending(), pos);
            }
            EXPECT_FALSE(engine.replaying()) << "walk never left the buffer";
            expectSameInst(engine.next(), ref[pos], pos);
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
    const std::uint64_t n = std::min(a->numBranches(), b->numBranches());
    for (std::uint64_t i = 0; i < n && !diverged; ++i) {
        a->read(i, ia);
        b->read(i, ib);
        diverged = a->posAt(i) != b->posAt(i) || ia.pc != ib.pc ||
                   ia.taken != ib.taken || ia.target != ib.target;
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
    // Budget fits the generation bound of one rounded-up trace: a
    // generation reserves the bound, and the budget then charges each
    // cached buffer its real footprint, well below the bound.
    const std::uint64_t bound = TraceBuffer::maxRecordBytesFor(1 << 16);
    TraceCache cache(bound + 1024);
    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(cache.cachedBytes(), a->footprintBytes());
    EXPECT_LT(a->footprintBytes(), bound / 2);
    a.reset();  // make it idle so it is evictable

    auto b = cache.acquire(WorkloadId::DssQry, 2, 10'000);
    ASSERT_NE(b, nullptr) << "idle LRU entry must be evicted to make room";
    EXPECT_EQ(cache.cachedBytes(), b->footprintBytes()) << "a was evicted";

    // While b is still referenced it cannot be evicted, so a third
    // distinct trace is turned away rather than overcommitting.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 3, 10'000), nullptr);
    EXPECT_GE(cache.bypasses(), 1u);
    EXPECT_EQ(cache.cachedBytes(), b->footprintBytes());
    EXPECT_LE(cache.cachedBytes(), cache.budgetBytes());
}

TEST(TraceCache, FailedUpgradeKeepsShorterBuffer)
{
    // Budget fits the bound of a single-granule trace but not that of a
    // two-granule one.
    TraceCache cache(TraceBuffer::maxRecordBytesFor(1 << 16) + 1024);
    auto small = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(small, nullptr);

    // Upgrading the same key beyond the budget must fail without
    // destroying the still-servable shorter buffer.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 1, 100'000), nullptr);
    EXPECT_EQ(cache.cachedBytes(), small->footprintBytes());
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
                1.2379787569254748, 1e-9);
}

TEST(TraceCacheGolden, ColdFig06SweepGeneratesOneStreamPerWorkloadCore)
{
    // Every design of a workload replays the same streams, so a cold
    // quick-scale fig06 grid generates one trace per (workload, core)
    // and serves every other lookup from the cache.
    const std::uint64_t saved = traceCache().budgetBytes();
    traceCache().setBudgetBytes(512ull << 20);  // the default budget
    traceCache().clear();
    const std::uint64_t lookups = traceCache().lookups();
    const std::uint64_t hits = traceCache().hits();
    const std::uint64_t misses = traceCache().misses();
    const std::uint64_t bypasses = traceCache().bypasses();

    const std::vector<FrontendKind> kinds = {
        FrontendKind::Baseline,      FrontendKind::Fdp,
        FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
        FrontendKind::TwoLevelShift, FrontendKind::Confluence,
        FrontendKind::Ideal,
    };
    const RunScale scale = scaleByName("quick");
    SweepEngine engine;
    const SweepResult r =
        runTimingSweep(kinds, allWorkloads(), makeSystemConfig(1), scale,
                       engine);
    traceCache().setBudgetBytes(saved);

    const std::uint64_t streams = allWorkloads().size() * scale.timingCores;
    const std::uint64_t points = kinds.size() * allWorkloads().size();
    ASSERT_EQ(r.points.size(), points);
    EXPECT_EQ(traceCache().misses() - misses, streams);
    EXPECT_EQ(traceCache().lookups() - lookups,
              points * scale.timingCores);
    EXPECT_EQ(traceCache().hits() - hits, (points - allWorkloads().size()) *
                                              scale.timingCores);
    EXPECT_EQ(traceCache().bypasses() - bypasses, 0u);
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
