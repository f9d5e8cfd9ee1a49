/**
 * @file
 * Adaptive design-space search over the content-addressed result
 * cache.
 *
 * One SearchDriver entry point (runSearch) dispatches between three
 * deterministic, seeded strategies:
 *
 *   exhaustive   every candidate, exact, one round — the reference
 *                the adaptive strategies are gated against;
 *   halving      successive halving: screening rounds on growing
 *                workload prefixes (sampled by default), an eta-fold
 *                elimination per rung, exact finals for the survivors;
 *   fuzz         a scenario fuzzer sampling randomized (candidate,
 *                workload, sampling) points from replayable per-trial
 *                seeds, asserting codec round-trips and metric sanity
 *                on every point it evaluates.
 *
 * Every strategy is a pure function of (seed, space, scale, budget,
 * workloads) plus the bit-deterministic outcomes of the points it
 * requests, so its decision sequence — and therefore its journal — is
 * byte-identical across runs, cache states, and kill/resume cycles.
 * Points are evaluated through an Evaluator; the CachedEvaluator
 * implementation consults the ResultCache first and only simulates
 * misses, which is what makes re-screening a prefix-workload rung, a
 * warm re-run, or a resume free.
 */

#ifndef CFL_SEARCH_DRIVER_HH
#define CFL_SEARCH_DRIVER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "dispatch/result_cache.hh"
#include "search/journal.hh"
#include "search/pareto.hh"
#include "search/space.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

namespace cfl::search
{

/** Everything a strategy's decision sequence depends on. */
struct SearchOptions
{
    std::string strategy; ///< "exhaustive"|"halving"|"fuzz"
    DesignSpace space;
    std::vector<WorkloadId> workloads; ///< scoring set, in rung order
    RunScale scale;
    std::string scaleName = "default";
    std::string codeVersion; ///< journaled; part of every point key
    std::uint64_t seed = 1;
    /**
     * Point-request budget (0 = unlimited; fuzz defaults to 24
     * trials). Counted against *requested* evaluations — cache hits
     * included — so the same budget stops the same search at the same
     * record no matter how warm the cache is. halving stops
     * issuing further screening rounds once the budget is consumed;
     * halving's exact final round always completes.
     */
    std::uint64_t budget = 0;
    bool sampledScreening = true; ///< halving rungs use SMARTS sampling
    unsigned eta = 4;       ///< halving elimination factor (>= 2)
    unsigned finalists = 2; ///< halving exact-final survivor count
};

/** Point-evaluation backend a strategy talks to. */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /** Evaluate @p points, results in submission order. Duplicate
     *  submissions within one batch must be served from one
     *  evaluation. */
    virtual SweepResult
    evaluate(const std::vector<SweepPoint> &points) = 0;

    /** The content-addressed key of @p point (journaled by eval
     *  records). */
    virtual std::string pointKey(const SweepPoint &point) const = 0;

    /** Fresh simulations performed. */
    virtual std::uint64_t evaluatedPoints() const = 0;

    /** Points served from the result cache. */
    virtual std::uint64_t cachedPoints() const = 0;

    /** Distinct points requested per batch, summed over batches —
     *  cache-independent, the quantity budgets meter. */
    virtual std::uint64_t requestedPoints() const = 0;
};

/**
 * The production Evaluator: ResultCache lookups first (when a cache is
 * attached), fresh points through runTimingSweep on the shared engine,
 * fresh outcomes inserted and flushed after every batch so a killed
 * search loses at most the batch in flight.
 */
class CachedEvaluator : public Evaluator
{
  public:
    /** @param cache may be nullptr (no memoization, keys still
     *  computed against @p code_version). */
    CachedEvaluator(const SystemConfig &config, SweepEngine &engine,
                    dispatch::ResultCache *cache,
                    std::string code_version);

    SweepResult evaluate(const std::vector<SweepPoint> &points) override;
    std::string pointKey(const SweepPoint &point) const override;
    std::uint64_t evaluatedPoints() const override { return evaluated_; }
    std::uint64_t cachedPoints() const override { return cached_; }
    std::uint64_t requestedPoints() const override { return requested_; }

  private:
    SystemConfig config_;
    SweepEngine &engine_;
    dispatch::ResultCache *cache_;
    std::string codeVersion_;
    std::uint64_t evaluated_ = 0;
    std::uint64_t cached_ = 0;
    std::uint64_t requested_ = 0;
};

/** What a finished (or stopped) search hands back. */
struct SearchReport
{
    /** Candidates holding final scores (exact for every strategy but
     *  fuzz, whose trials score their own sampled workload). */
    std::vector<ScoredCandidate> scored;
    std::vector<std::size_t> front; ///< indices into scored
    std::string best;               ///< best candidate's slug
    double bestScore = 0.0;
    SearchCost bestCost;
    std::uint64_t rounds = 0;
    /** Non-empty when the fuzzer found a property violation; the
     *  search stopped at violationTrial and emitted a "reject"
     *  decision. Replaying --strategy fuzz with the same seed and
     *  space reproduces the identical failing point. */
    std::string violation;
    std::uint64_t violationTrial = 0;
};

/** Run @p opts.strategy to completion, journaling every step. */
SearchReport runSearch(const SearchOptions &opts, Evaluator &eval,
                       SearchJournal &journal);

/**
 * The fuzzer's trial generator, exposed for seed-replay tests: the
 * point of trial @p trial is a pure function of (space, scale, seed,
 * trial) — workload, geometry, and sampling stream all derive from
 * the trial's own Rng.
 */
SweepPoint fuzzerTrialPoint(const DesignSpace &space,
                            const RunScale &scale, std::uint64_t seed,
                            std::uint64_t trial);

/** The candidate a fuzzer trial point belongs to. */
Candidate fuzzerTrialCandidate(const DesignSpace &space,
                               std::uint64_t seed, std::uint64_t trial);

} // namespace cfl::search

#endif // CFL_SEARCH_DRIVER_HH
