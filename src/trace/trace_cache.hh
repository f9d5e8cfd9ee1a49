/**
 * @file
 * Process-wide, thread-safe cache of shared immutable workload traces.
 *
 * Every sweep point used to re-synthesize its oracle stream from scratch
 * (RNG + behavior model per instruction). The cache generates the trace
 * of each (workload, seed) pair once into a TraceBuffer and hands out
 * shared const views, so concurrent sweep points — and repeated sweeps
 * in one process, the common case for figure benches, calibration runs,
 * and the perf harness — replay instead of regenerating.
 *
 * Memory/speed trade-off: a buffer stores only its branches, 4-7 bytes
 * per instruction on the presets (TraceBuffer::footprintBytes). The
 * cache enforces a byte budget (CONFLUENCE_TRACE_CACHE_MB, default 512;
 * 0 disables caching) over those real footprints. Generating a trace
 * first reserves TraceBuffer::maxRecordBytesFor(length), a bound the
 * footprint cannot exceed but for its few-KB tail snapshot; once the
 * buffer exists the reservation is replaced by its footprint (trued
 * up). Least-recently-used idle buffers are dropped to make room, and
 * when a new trace cannot fit even after eviction, acquire() returns
 * nullptr and the caller simply keeps generating live — behaviour is
 * bit-identical either way, only the speed differs. Evicted buffers
 * are released only after the cache mutex is dropped, so a large unmap
 * never stalls other acquires.
 */

#ifndef CFL_TRACE_TRACE_CACHE_HH
#define CFL_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/trace_buffer.hh"
#include "workloads/suite.hh"

namespace cfl
{

/** Keyed store of shared TraceBuffers with an LRU byte budget. */
class TraceCache
{
  public:
    /** @param budget_bytes maximum cached bytes; 0 disables. */
    explicit TraceCache(std::uint64_t budget_bytes);

    /**
     * A shared trace of at least @p min_insts instructions of
     * (workload, seed), generating and caching it on first use.
     * Returns nullptr when the budget rules caching out — callers fall
     * back to live generation.
     */
    std::shared_ptr<const TraceBuffer>
    acquire(WorkloadId workload, std::uint64_t seed,
            std::uint64_t min_insts);

    /** Replace the byte budget (0 disables and drops idle entries). */
    void setBudgetBytes(std::uint64_t bytes);

    /** Drop every idle (externally unreferenced) buffer. */
    void clear();

    std::uint64_t budgetBytes() const;
    /** Footprint of the cached buffers (reservations of traces being
     *  generated count against the budget but not here). */
    std::uint64_t cachedBytes() const;

    /**
     * Completed acquire() calls. Every lookup is classified as exactly
     * one of hit, miss, or bypass, so
     * hits() + misses() + bypasses() == lookups() always holds (an
     * acquire that unwinds with an exception is not counted).
     */
    std::uint64_t lookups() const;
    /** acquire() calls served from an existing buffer. */
    std::uint64_t hits() const;
    /** acquire() calls that generated a new buffer. */
    std::uint64_t misses() const;
    /** acquire() calls the budget turned away. */
    std::uint64_t bypasses() const;

  private:
    struct Entry;
    using Evicted = std::vector<std::shared_ptr<TraceBuffer>>;

    /** Drop idle LRU entries (other than @p exclude) into @p evicted
     *  until @p needed more bytes fit; true on success. */
    bool makeRoom(std::uint64_t needed, Evicted &evicted,
                  const Entry *exclude = nullptr);

    mutable std::mutex mutex_;
    std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Entry>>
        entries_;
    std::uint64_t budgetBytes_;
    std::uint64_t chargedBytes_ = 0;   ///< footprints of cached buffers
    std::uint64_t reservedBytes_ = 0;  ///< bounds of traces in generation
    std::uint64_t useClock_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t bypasses_ = 0;
};

/**
 * The process-wide cache every frontend shares. The initial budget comes
 * from CONFLUENCE_TRACE_CACHE_MB (default 512, 0 disables).
 */
TraceCache &traceCache();

} // namespace cfl

#endif // CFL_TRACE_TRACE_CACHE_HH
