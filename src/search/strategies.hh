/**
 * @file
 * Internals shared by the search strategies (not part of the public
 * API): the per-run context with scoring-round plumbing, and the
 * strategy entry points driver.cc dispatches to.
 */

#ifndef CFL_SEARCH_STRATEGIES_HH
#define CFL_SEARCH_STRATEGIES_HH

#include "search/driver.hh"

namespace cfl::search::detail
{

struct StrategyContext
{
    const SearchOptions &opts;
    Evaluator &eval;
    SearchJournal &journal;
    std::vector<Candidate> candidates; ///< enumerateCandidates(space)
    std::uint64_t round = 0;           ///< next round index

    /**
     * One scoring round: evaluate every @p scored candidate against
     * the first @p num_workloads workloads (plus the Baseline
     * normalization points), journal the round and eval records, and
     * return each candidate's geomean speedup in @p scored order.
     * Consumes one round index.
     */
    std::vector<double> scoreRound(const std::vector<Candidate> &scored,
                                   std::size_t num_workloads,
                                   bool sampled);

    /** The budget is consumed (never true with budget == 0). */
    bool budgetExhausted() const;

    /** Journal one decision for @p candidate in round @p in_round. */
    void emitDecision(std::uint64_t in_round, const Candidate &candidate,
                      const std::string &action, double score,
                      const SearchCost &cost);

    /**
     * Shared epilogue: compute the Pareto front of @p scored, journal
     * a "front" decision per member and the "done" record, verify the
     * journal is exhausted, and build the report.
     */
    SearchReport finish(std::vector<ScoredCandidate> scored);
};

SearchReport runExhaustive(StrategyContext &ctx);
SearchReport runHalving(StrategyContext &ctx);
SearchReport runFuzzer(StrategyContext &ctx);

} // namespace cfl::search::detail

#endif // CFL_SEARCH_STRATEGIES_HH
