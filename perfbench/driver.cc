/**
 * @file
 * Workload driver of the repo benchmark (see BENCHMARK.md).
 *
 * One process runs one cold pass of one workload and writes what it
 * measured to DIR/record.json; run.py starts a fresh process per
 * repetition, takes medians across them and checks the outputs.
 *
 *   perfbench_driver --workload fig06_exact|fig06_sampled|search_halving
 *                    --seed N --jobs N --dir DIR
 *                    [--trace] [--setup-only] [--reference]
 *
 *   --trace       record spans around the calls into each layer and
 *                 write them with the record (a traced pass is slower;
 *                 end-to-end figures come from untraced passes)
 *   --setup-only  stop after set-up (program synthesis, config, pool,
 *                 cache open); run.py times several of these per run
 *   --reference   fig06_exact only: evaluate the grid through the
 *                 library's own runTimingSweep and write its encoding,
 *                 which run.py compares byte for byte at seed 0
 *
 * Every workload runs at the Table-1 `default` scale. Seed 0 gives
 * every point today's sweepPointSeed stream; any other seed mixes the
 * seed into it and gives held-out streams.
 *
 * Exit codes: 0 pass completed (the record lists each check and
 * whether it held), 2 usage or refused settings.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "confluence/cmp.hh"
#include "dispatch/result_cache.hh"
#include "search/driver.hh"
#include "search/journal.hh"
#include "sim/metrics.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"
#include "sweepio/json.hh"
#include "trace/trace_cache.hh"
#include "workloads/suite.hh"

using namespace cfl;

// ---------------------------------------------------------------------------
// Allocation counter (this binary only)
// ---------------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> gAllocs{0};
} // namespace

void *
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
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

// ---------------------------------------------------------------------------
// Clock and spans
// ---------------------------------------------------------------------------

const std::chrono::steady_clock::time_point gStart =
    std::chrono::steady_clock::now();

/** Seconds since process start (static initialization). */
double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         gStart)
        .count();
}

struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = top level
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int point = -1;  ///< index into the record's point table
    int worker = 0;  ///< 0 = main thread
};

bool gTrace = false;
std::atomic<std::uint32_t> gNextSpan{1};
std::atomic<int> gNextWorker{0};
std::mutex gSpanMutex;
std::vector<SpanRecord> gSpans; // guarded by gSpanMutex

/** Trace-cache bytes, sampled at each point boundary of a traced run. */
std::atomic<std::uint64_t> gPeakCacheBytes{0};

thread_local std::uint32_t tOpenSpan = 0;
thread_local int tPoint = -1;

int
workerId()
{
    thread_local const int id = gNextWorker.fetch_add(1);
    return id;
}

/**
 * RAII span around one call into a layer; does nothing unless --trace.
 * A span given a point id tags itself and every span nested in it.
 */
class Span
{
  public:
    explicit Span(const char *name, int point = -1)
    {
        if (!gTrace)
            return;
        rec_.id = gNextSpan.fetch_add(1);
        rec_.parent = tOpenSpan;
        rec_.name = name;
        rec_.worker = workerId();
        savedPoint_ = tPoint;
        if (point >= 0)
            tPoint = point;
        rec_.point = tPoint;
        tOpenSpan = rec_.id;
        rec_.start = now();
    }

    ~Span()
    {
        if (rec_.id == 0)
            return;
        rec_.end = now();
        tOpenSpan = rec_.parent;
        tPoint = savedPoint_;
        std::lock_guard<std::mutex> lock(gSpanMutex);
        gSpans.push_back(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecord rec_;
    int savedPoint_ = -1;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer
// ---------------------------------------------------------------------------

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    return "\"" + sweepio::escapeJsonString(s) + "\"";
}

/** Accumulates "key": value members of one JSON object. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNum(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonStr(v));
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + jsonStr(key) + ":" + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** "[a,b,...]" of already-encoded JSON values. */
std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (const std::string &item : items) {
        if (out.size() > 1)
            out += ',';
        out += item;
    }
    return out + "]";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

const std::vector<FrontendKind> kFig06Kinds = {
    FrontendKind::Baseline,      FrontendKind::Fdp,
    FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
    FrontendKind::TwoLevelShift, FrontendKind::Confluence,
    FrontendKind::Ideal,
};

/** The 41-candidate quick design space of CI's adaptive-search job. */
const char *const kSearchSpace =
    "kinds=fdp,two_level_shift,confluence;"
    "btb_entries=256,512,1024,2048,4096;"
    "l2_entries=4096,8192,16384,32768;"
    "shift_history=8192,16384,32768;"
    "air_bundles=128,256,512,1024;air_branch_entries=2,3";

/** Fixed code-version tag of the search's private result cache, so
 *  journal bytes do not depend on the environment. */
const char *const kCodeVersion = "perfbench";

std::vector<SweepPoint>
fig06Points(const RunScale &scale, bool sampled)
{
    std::vector<SweepPoint> points;
    for (const FrontendKind kind : kFig06Kinds)
        for (const WorkloadId wl : allWorkloads()) {
            SweepPoint p{kind, wl, scale, SamplingSpec{}, DesignOverlay{}};
            if (sampled)
                p.sampling = defaultSamplingSpec(scale);
            points.push_back(p);
        }
    return points;
}

/** Seed base of @p point under benchmark seed @p seed: seed 0 is the
 *  library's own sweepPointSeed, any other seed a held-out stream. */
std::uint64_t
benchPointSeed(const SweepPoint &point, std::uint64_t seed)
{
    const std::uint64_t base = sweepPointSeed(point.kind, point.workload);
    return seed == 0 ? base : hashCombine(base, seed);
}

/** One evaluated point, for the record's point table. */
struct PointInfo
{
    SweepPoint point;
    std::uint64_t seedBase = 0;
};

/**
 * The benchmark's search::Evaluator. It evaluates points like the
 * library's CachedEvaluator (result-cache lookup, fresh points on the
 * pool, insert and flush per batch), but seeds each point from the
 * benchmark seed and drives the Cmp stepping API itself so that each
 * phase can be spanned. It also times every batch (search.eval_s).
 */
class BenchEvaluator : public search::Evaluator
{
  public:
    BenchEvaluator(const SystemConfig &config, SweepEngine &engine,
                   std::uint64_t seed, dispatch::ResultCache *cache)
        : config_(config), engine_(engine), seed_(seed), cache_(cache)
    {
    }

    SweepResult evaluate(const std::vector<SweepPoint> &points) override;

    std::string pointKey(const SweepPoint &point) const override
    {
        const std::uint64_t s = benchPointSeed(point, seed_);
        return cache_ != nullptr
                   ? cache_->key(point, s)
                   : sweepio::pointDigest(point, s, kCodeVersion);
    }

    std::uint64_t evaluatedPoints() const override
    {
        return fresh_.points.size();
    }
    std::uint64_t cachedPoints() const override { return cached_; }
    std::uint64_t requestedPoints() const override { return requested_; }

    /** Every freshly simulated outcome, in evaluation order. */
    const SweepResult &fresh() const { return fresh_; }
    const std::vector<PointInfo> &pointTable() const { return table_; }
    double evalSeconds() const { return evalSeconds_; }
    /** Time the first point was handed to the pool (< 0: none yet). */
    double firstSubmit() const { return firstSubmit_; }
    std::uint64_t allocsAtSubmit() const { return allocsAtSubmit_; }

  private:
    CmpMetrics runPoint(const SweepPoint &point, std::uint64_t seed_base,
                        int id);

    SystemConfig config_;
    SweepEngine &engine_;
    std::uint64_t seed_;
    dispatch::ResultCache *cache_;
    SweepResult fresh_;
    std::vector<PointInfo> table_;
    std::uint64_t cached_ = 0;
    std::uint64_t requested_ = 0;
    double evalSeconds_ = 0.0;
    double firstSubmit_ = -1.0;
    std::uint64_t allocsAtSubmit_ = 0;

    /** Streams already requested from the trace cache in this process:
     *  a first request is a miss that generates the whole stream. */
    std::mutex streamsMutex_;
    std::set<std::pair<int, std::uint64_t>> streams_;
};

CmpMetrics
BenchEvaluator::runPoint(const SweepPoint &point, std::uint64_t seed_base,
                         int id)
{
    Span pointSpan("sim.point", id);
    SystemConfig cfg = config_;
    cfg.numCores = point.scale.timingCores;
    point.overlay.applyTo(cfg);

    std::optional<Cmp> cmp;
    {
        Span s("confluence.build");
        cmp.emplace(point.kind, point.workload, cfg, seed_base);
    }

    bool firstUse = false;
    {
        std::lock_guard<std::mutex> lock(streamsMutex_);
        firstUse = streams_
                       .emplace(static_cast<int>(point.workload), seed_base)
                       .second;
    }
    const Counter warm = point.scale.timingWarmupInsts;
    const Counter measure = point.scale.timingMeasureInsts;
    {
        // runSampled prepares traces itself; preparing them first is
        // bit-identical (engines already replaying are left alone) and
        // keeps generation out of the runSampled span.
        Span s(firstUse ? "trace.prepare_miss" : "trace.prepare");
        cmp->prepareTraces(warm + measure);
    }

    CmpMetrics metrics;
    if (point.sampling.enabled()) {
        Span s("confluence.sampled");
        metrics = cmp->runSampled(warm, measure, point.sampling);
    } else {
        {
            Span s("confluence.warmup");
            cmp->runWarmup(warm);
        }
        {
            Span s("confluence.measure");
            cmp->runMeasurement(measure);
        }
        Span s("confluence.collect");
        metrics = cmp->collectMetrics();
    }
    if (gTrace) {
        const std::uint64_t bytes = traceCache().cachedBytes();
        std::uint64_t seen = gPeakCacheBytes.load();
        while (bytes > seen &&
               !gPeakCacheBytes.compare_exchange_weak(seen, bytes)) {
        }
    }
    return metrics;
}

SweepResult
BenchEvaluator::evaluate(const std::vector<SweepPoint> &points)
{
    const double t0 = now();
    SweepResult out;
    out.points.resize(points.size());

    std::unordered_map<std::string, std::size_t> firstOf;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
    std::vector<std::size_t> freshIdx;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const auto [it, inserted] =
            firstOf.emplace(sweepio::encodePoint(p), i);
        if (!inserted) {
            aliases.emplace_back(i, it->second);
            continue;
        }
        ++requested_;
        if (cache_ != nullptr) {
            const SweepOutcome *hit = nullptr;
            {
                Span s("dispatch.cache.lookup");
                hit = cache_->lookup(p, benchPointSeed(p, seed_));
            }
            if (hit != nullptr) {
                out.points[i] = *hit;
                ++cached_;
                continue;
            }
        }
        freshIdx.push_back(i);
    }

    if (!freshIdx.empty()) {
        const std::size_t base = table_.size();
        for (const std::size_t i : freshIdx)
            table_.push_back({points[i], benchPointSeed(points[i], seed_)});
        if (firstSubmit_ < 0.0) {
            firstSubmit_ = now();
            allocsAtSubmit_ = gAllocs.load();
        }
        engine_.parallelFor(freshIdx.size(), [&](std::size_t k) {
            const PointInfo &info = table_[base + k];
            SweepOutcome o;
            o.point = info.point;
            o.seed = info.seedBase;
            o.metrics = runPoint(info.point, info.seedBase,
                                 static_cast<int>(base + k));
            out.points[freshIdx[k]] = std::move(o);
        });
        for (const std::size_t i : freshIdx) {
            if (cache_ != nullptr) {
                Span s("dispatch.cache.insert");
                cache_->insert(out.points[i]);
            }
            fresh_.points.push_back(out.points[i]);
        }
        if (cache_ != nullptr) {
            Span s("dispatch.cache.flush");
            cache_->flush();
        }
    }
    for (const auto &[i, first] : aliases)
        out.points[i] = out.points[first];
    evalSeconds_ += now() - t0;
    return out;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** A point's metrics are self-consistent; "" when they are. */
std::string
pointProblem(const SweepOutcome &o)
{
    const CmpMetrics &m = o.metrics;
    if (m.cores.size() != o.point.scale.timingCores)
        return "core count";
    for (const CoreMetrics &c : m.cores)
        if (c.retired == 0 || c.cycles == 0 ||
            c.btbTakenMisses > c.btbTakenLookups ||
            c.l1iDemandMisses > c.l1iDemandFetches)
            return "core counters";
    const double ipc = m.meanIpc();
    if (!std::isfinite(ipc) || ipc <= 0.0)
        return "ipc";
    // A core stops at the first cycle that reaches its target, so it
    // may retire a few instructions (less than one retire group) past it.
    constexpr Counter kOvershoot = 16;
    if (!o.point.sampling.enabled()) {
        const Counter want = o.point.scale.timingMeasureInsts;
        for (const CoreMetrics &c : m.cores)
            if (c.retired < want || c.retired > want + kOvershoot)
                return "retired outside the measure budget";
        return m.sampling.valid() ? "exact point carries estimators" : "";
    }
    // Sampled: the interval count is fixed by the plan — phase lies in
    // [warm, period - interval], so it is floor(m / period) up to
    // floor((m - warm - interval) / period) + 1.
    const SamplingSpec &s = o.point.sampling;
    const Counter meas = o.point.scale.timingMeasureInsts;
    const std::uint64_t lo = meas / s.periodInsts;
    const std::uint64_t hi =
        (meas - s.detailedWarmupInsts - s.intervalInsts) / s.periodInsts +
        1;
    const SampleEstimates &e = m.sampling;
    if (!e.valid() || e.cpi.count < std::max<std::uint64_t>(lo, 2) ||
        e.cpi.count > hi || e.btbMpki.count != e.cpi.count ||
        e.l1iMpki.count != e.cpi.count)
        return "sampled interval count";
    for (const MetricEstimate *est : {&e.cpi, &e.btbMpki, &e.l1iMpki})
        if (!std::isfinite(est->mean) || !std::isfinite(est->m2) ||
            est->m2 < 0.0 || !std::isfinite(est->halfWidth95()))
            return "sampled estimator";
    for (const CoreMetrics &c : m.cores)
        if (c.retired < e.cpi.count * s.intervalInsts ||
            c.retired > e.cpi.count * (s.intervalInsts + kOvershoot))
            return "sampled retired outside intervals x interval";
    return "";
}

/** Confluence beats every non-ideal kind and stays at or below Ideal. */
Check
fig06Shape(const SweepResult &r)
{
    Check c{"fig06_shape", true, ""};
    const double conf =
        r.geomeanSpeedup(FrontendKind::Confluence, FrontendKind::Baseline);
    for (const FrontendKind k : kFig06Kinds) {
        if (k == FrontendKind::Confluence)
            continue;
        const double g = r.geomeanSpeedup(k, FrontendKind::Baseline);
        const bool held = k == FrontendKind::Ideal ? conf <= g : conf > g;
        if (!held) {
            c.ok = false;
            c.detail += frontendKindSlug(k) + "=" + jsonNum(g) + " ";
        }
    }
    if (!c.ok)
        c.detail = "confluence=" + jsonNum(conf) + " vs " + c.detail;
    return c;
}

// ---------------------------------------------------------------------------
// Model metrics
// ---------------------------------------------------------------------------

/** Per-kind modelled statistics over every outcome of that kind. */
std::string
modelMetrics(const SweepResult &r, bool fig06)
{
    JsonObject obj;
    for (const FrontendKind kind : kFig06Kinds) {
        const std::string k = "model." + frontendKindSlug(kind) + ".";
        double ipcSum = 0.0;
        std::size_t n = 0;
        double retired = 0, misses = 0, l1i = 0, misfetch = 0, l2 = 0,
               fetch = 0;
        for (const SweepOutcome &o : r.points) {
            if (o.point.kind != kind)
                continue;
            ipcSum += o.metrics.meanIpc();
            ++n;
            for (const CoreMetrics &c : o.metrics.cores) {
                retired += c.retired;
                misses += c.btbTakenMisses;
                l1i += c.l1iDemandMisses;
                misfetch += c.misfetches;
                l2 += c.btbL2StallCycles;
                fetch += c.fetchMissStallCycles;
            }
        }
        const double per = retired > 0 ? 1.0 / retired : 0.0;
        obj.num(k + "ipc", n > 0 ? ipcSum / n : 0.0)
            .num(k + "btb_mpki", 1000.0 * misses * per)
            .num(k + "l1i_mpki", 1000.0 * l1i * per)
            .num(k + "misfetch_pki", 1000.0 * misfetch * per)
            .num(k + "btb_l2_stall_cpi", l2 * per)
            .num(k + "fetch_stall_cpi", fetch * per);
    }
    double ideal = 0.0, conf = 0.0, shift = 0.0;
    for (const FrontendKind kind : kFig06Kinds) {
        if (kind == FrontendKind::Baseline)
            continue;
        const double g =
            fig06 ? r.geomeanSpeedup(kind, FrontendKind::Baseline) : 0.0;
        obj.num("model.geomean_speedup." + frontendKindSlug(kind), g);
        if (kind == FrontendKind::Ideal)
            ideal = g;
        if (kind == FrontendKind::Confluence)
            conf = g;
        if (kind == FrontendKind::TwoLevelShift)
            shift = g;
    }
    obj.num("model.confluence_frac_of_ideal",
            fig06 ? fractionOfIdeal(conf, ideal) : 0.0)
        .num("model.two_level_shift_frac_of_ideal",
             fig06 ? fractionOfIdeal(shift, ideal) : 0.0);
    return obj.text();
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload fig06_exact|fig06_sampled|search_halving "
                 "--seed N --jobs N --dir DIR [--trace] [--setup-only] "
                 "[--reference]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE)
        usage((flag + " needs a non-negative integer").c_str());
    return n;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f.flush())
        usage(("cannot write " + path).c_str());
}

std::string
spansJson()
{
    std::lock_guard<std::mutex> lock(gSpanMutex);
    std::vector<std::string> items;
    for (const SpanRecord &s : gSpans)
        items.push_back(JsonObject()
                            .num("id", s.id)
                            .num("parent", s.parent)
                            .str("name", s.name)
                            .num("start", s.start)
                            .num("end", s.end)
                            .num("point", s.point)
                            .num("worker", s.worker)
                            .text());
    return jsonArray(items);
}

std::string
pointTableJson(const BenchEvaluator &eval)
{
    std::vector<std::string> items;
    for (const PointInfo &info : eval.pointTable()) {
        const SweepPoint &p = info.point;
        items.push_back(JsonObject()
                            .str("kind", frontendKindSlug(p.kind))
                            .str("workload", workloadSlug(p.workload))
                            .num("sampled", p.sampling.enabled() ? 1 : 0)
                            .num("warmup_insts", p.scale.timingWarmupInsts)
                            .num("measure_insts",
                                 p.scale.timingMeasureInsts)
                            .num("cores", p.scale.timingCores)
                            .text());
    }
    return jsonArray(items);
}

} // namespace

int
main(int argc, char **argv)
{
    workerId(); // the main thread is worker 0
    std::string workload, dir;
    std::uint64_t seed = 0, jobs = 0;
    bool haveSeed = false, setupOnly = false, reference = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            seed = parseCount(arg, value());
            haveSeed = true;
        } else if (arg == "--jobs") {
            jobs = parseCount(arg, value());
        } else if (arg == "--dir") {
            dir = value();
        } else if (arg == "--trace") {
            gTrace = true;
            gSpans.reserve(1 << 14);
        } else if (arg == "--setup-only") {
            setupOnly = true;
        } else if (arg == "--reference") {
            reference = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const bool fig06 =
        workload == "fig06_exact" || workload == "fig06_sampled";
    if (!fig06 && workload != "search_halving")
        usage("unknown --workload");
    if (!haveSeed || dir.empty())
        usage("--seed and --dir are required");
    const unsigned hw = std::thread::hardware_concurrency();
    if (jobs == 0 || (hw != 0 && jobs > hw))
        usage("--jobs must be between 1 and the host's CPU count");
    if (reference && (workload != "fig06_exact" || seed != 0))
        usage("--reference is defined for fig06_exact at seed 0 only");

    // ---- set-up: program synthesis, config, pool, cache open ----
    for (const WorkloadId wl : allWorkloads()) {
        Span s("workloads.synth");
        workloadProgram(wl);
    }
    const RunScale scale = scaleByName("default");
    const SystemConfig config = makeSystemConfig(scale.timingCores);
    SweepEngine engine(static_cast<unsigned>(jobs));

    if (reference) {
        const SweepResult ref = runTimingSweep(
            fig06Points(scale, /*sampled=*/false), config, engine);
        writeFile(dir + "/result.txt", sweepio::encodeResult(ref));
        writeFile(dir + "/record.json", "{}\n");
        return 0;
    }

    std::optional<dispatch::ResultCache> cache;
    std::optional<search::SearchJournal> journal;
    if (!fig06) {
        cache.emplace(dir + "/cache.jsonl", kCodeVersion);
        journal.emplace(dir + "/journal.jsonl", /*resume=*/false);
    }
    BenchEvaluator eval(config, engine, seed,
                        cache ? &*cache : nullptr);

    JsonObject rec;
    rec.str("workload", workload)
        .str("seed", std::to_string(seed))
        .num("jobs", jobs);
    if (setupOnly) {
        rec.num("setup_s", now());
        writeFile(dir + "/record.json", rec.text() + "\n");
        return 0;
    }

    // ---- the timed pass ----
    std::vector<Check> checks;
    std::string best;
    search::SearchReport report;
    const double passBegin = now();
    if (fig06) {
        eval.evaluate(fig06Points(scale, workload == "fig06_sampled"));
    } else {
        search::SearchOptions opts;
        opts.strategy = "halving";
        opts.space = search::DesignSpace::parse(kSearchSpace);
        opts.workloads = allWorkloads();
        opts.scale = scale;
        opts.scaleName = "default";
        opts.codeVersion = kCodeVersion;
        opts.seed = 1;
        opts.eta = 4;
        opts.finalists = 2;
        opts.sampledScreening = true;
        report = search::runSearch(opts, eval, *journal);
        best = report.best;
    }
    const double passEnd = now();
    const std::uint64_t allocs = gAllocs.load() - eval.allocsAtSubmit();
    const double setupS = eval.firstSubmit();
    const double wallS = passEnd - setupS;

    // ---- outputs: codec round trip, digests, checks ----
    const SweepResult &result = eval.fresh();
    std::string encoded;
    {
        Span s("sweepio.encode");
        encoded = sweepio::encodeResult(result);
    }
    SweepResult decoded;
    {
        Span s("sweepio.decode");
        decoded = sweepio::decodeResult(encoded);
    }
    checks.push_back({"codec_round_trip",
                      sweepio::encodeResult(decoded) == encoded, ""});
    writeFile(dir + "/result.txt", encoded);

    std::uint64_t failedPoints = 0;
    double simInsts = 0.0;
    for (const SweepOutcome &o : result.points) {
        const std::string problem = pointProblem(o);
        if (!problem.empty()) {
            ++failedPoints;
            checks.push_back({"point_valid", false,
                              frontendKindSlug(o.point.kind) + "/" +
                                  workloadSlug(o.point.workload) + ": " +
                                  problem});
        }
        simInsts += static_cast<double>(o.point.scale.timingWarmupInsts +
                                        o.point.scale.timingMeasureInsts) *
                    o.point.scale.timingCores;
    }
    if (fig06) {
        checks.push_back({"fig06_points",
                          result.points.size() ==
                              kFig06Kinds.size() * allWorkloads().size(),
                          std::to_string(result.points.size())});
        if (failedPoints == 0)
            checks.push_back(fig06Shape(result));
    } else {
        checks.push_back({"search_best", !best.empty(), best});
    }

    // Sampling layer statistics.
    double intervals = 0.0, detailed = 0.0, budget = 0.0;
    std::size_t sampledPoints = 0, exactPoints = 0;
    for (const SweepOutcome &o : result.points) {
        const std::uint64_t cores = o.point.scale.timingCores;
        if (!o.point.sampling.enabled()) {
            ++exactPoints;
            continue;
        }
        ++sampledPoints;
        const SamplingSpec &s = o.point.sampling;
        intervals += static_cast<double>(o.metrics.sampling.cpi.count);
        detailed += static_cast<double>(o.metrics.sampling.cpi.count *
                                        (s.intervalInsts +
                                         s.detailedWarmupInsts) *
                                        cores);
        budget += static_cast<double>((o.point.scale.timingWarmupInsts +
                                       o.point.scale.timingMeasureInsts) *
                                      cores);
    }

    std::vector<std::string> checkItems;
    std::uint64_t failedChecks = 0;
    for (const Check &c : checks) {
        failedChecks += c.ok ? 0 : 1;
        checkItems.push_back(JsonObject()
                                 .str("name", c.name)
                                 .raw("ok", c.ok ? "true" : "false")
                                 .str("detail", c.detail)
                                 .text());
    }

    const TraceCache &tc = traceCache();
    JsonObject env;
    env.num("pool", jobs)
        .num("hardware_concurrency", hw)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .num("lto", PERFBENCH_LTO)
        .num("trace_cache_budget_mb",
             static_cast<double>(tc.budgetBytes()) / (1 << 20))
        .str("scale", "default")
        .num("cores_per_point", scale.timingCores)
        .num("warmup_insts", scale.timingWarmupInsts)
        .num("measure_insts", scale.timingMeasureInsts);

    JsonObject counters;
    counters.num("trace.cache.lookups", tc.lookups())
        .num("trace.cache.hits", tc.hits())
        .num("trace.cache.misses", tc.misses())
        .num("trace.cache.bypasses", tc.bypasses())
        .num("trace.cache.peak_bytes",
             static_cast<double>(gPeakCacheBytes.load()))
        .num("dispatch.cache.hits", cache ? cache->hits() : 0)
        .num("dispatch.cache.misses", cache ? cache->misses() : 0)
        .num("search.requested_points", eval.requestedPoints())
        .num("search.evaluated_points", eval.evaluatedPoints())
        .num("search.exact_points", exactPoints)
        .num("search.sampled_points", sampledPoints)
        .num("search.rounds", report.rounds)
        .num("search.eval_s", eval.evalSeconds())
        .num("sim.sampling.intervals_per_point",
             sampledPoints ? intervals / sampledPoints : 0.0)
        .num("sim.sampling.detailed_frac",
             budget > 0 ? detailed / budget : 0.0)
        .num("alloc.count", static_cast<double>(allocs));

    // pass_begin: the pass is entered; pass_start: its first point is
    // submitted, which ends set-up; pass_end: its last result is in.
    rec.num("setup_s", setupS)
        .num("wall_s", wallS)
        .num("pass_begin", passBegin)
        .num("pass_start", setupS)
        .num("pass_end", passEnd)
        .num("attempted", static_cast<double>(result.points.size()))
        .num("failed_points", static_cast<double>(failedPoints))
        .num("failed_checks", static_cast<double>(failedChecks))
        .num("fresh_points", static_cast<double>(result.points.size()))
        .num("sim_insts", simInsts)
        .str("best", best)
        .raw("checks", jsonArray(checkItems))
        .raw("env", env.text())
        .raw("counters", counters.text())
        .raw("model", modelMetrics(result, fig06 && failedPoints == 0))
        .raw("points", pointTableJson(eval))
        .raw("spans", spansJson());
    writeFile(dir + "/record.json", rec.text() + "\n");
    return 0;
}
