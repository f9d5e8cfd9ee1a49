/**
 * @file
 * Deterministic shard partitioning of a sweep spec.
 *
 * A shard is a contiguous slice of the point list by stable point index,
 * so concatenating the shards 0..N-1 (or merging their results in shard
 * order) reproduces the full sweep in its original submission order.
 * Per-point RNG seeds are pure functions of the point's workload
 * (sweepPointSeed; every design shares them), so sharding never changes
 * any point's metrics: the union of N shard results is bit-identical to
 * the unsharded sweep.
 */

#ifndef CFL_SWEEPIO_SHARD_HH
#define CFL_SWEEPIO_SHARD_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace cfl::sweepio
{

/** A parsed "--shard i/N" specification. */
struct ShardSpec
{
    unsigned index = 0;   ///< 0-based shard number
    unsigned count = 1;   ///< total number of shards
};

/**
 * Parse "i/N" (0 <= i < N, N >= 1). Both fields must be bare decimal
 * digits — no sign, whitespace, or base prefix — and fit in unsigned.
 * Anything else (including i/0, i >= N, negative, or overflowing
 * values) exits with code 1 and a message naming the spec: a malformed
 * shard silently mapped to the wrong slice would corrupt a merged
 * sweep, so rejection is fatal, never a fallback.
 */
ShardSpec parseShardSpec(const std::string &spec);

/**
 * Slice @p points down to shard @p index of @p count: the contiguous
 * index range [floor(index*m/count), floor((index+1)*m/count)). Shard
 * sizes differ by at most one and every point lands in exactly one
 * shard.
 */
std::vector<SweepPoint> shardPoints(const std::vector<SweepPoint> &points,
                                    unsigned index, unsigned count);

/** shardPoints() with a parsed spec. */
std::vector<SweepPoint> shardPoints(const std::vector<SweepPoint> &points,
                                    const ShardSpec &spec);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_SHARD_HH
