/**
 * @file
 * Tag-only set-associative cache timing model with LRU replacement.
 *
 * Data values live in FunctionalMemory; the caches model hit/miss timing
 * and access statistics only. Writeback, write-allocate.
 */

#ifndef DYNASPAM_MEMORY_CACHE_HH
#define DYNASPAM_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dynaspam::mem
{

/** Configuration of a single cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 64;
    Cycle hitLatency = 2;
};

/** Result of a timing access through a cache (or cache hierarchy). */
struct AccessResult
{
    Cycle latency = 0;  ///< total cycles to obtain the data
    bool hit = true;    ///< hit at the level access() was called on
};

/**
 * One cache level. Levels chain via the @c next pointer; the last level
 * misses to a fixed-latency memory.
 */
class Cache
{
  public:
    /**
     * @param params geometry and latency of this level
     * @param next next level, or nullptr for memory-backed
     * @param memory_latency latency charged on a last-level miss
     */
    explicit Cache(const CacheParams &params, Cache *next = nullptr,
                   Cycle memory_latency = 100);

    /**
     * Perform a timing access.
     * @param addr byte address
     * @param is_write true for stores
     * @return total latency including lower levels on a miss
     */
    AccessResult access(Addr addr, bool is_write);

    /**
     * Probe without updating state (no LRU touch, no fill).
     * @return true if @p addr currently hits.
     */
    bool probe(Addr addr) const;

    /**
     * Prefetch @p addr: fill the line off the critical path (no latency
     * charged, no demand-miss counted). No-op if the line is present.
     */
    void prefetch(Addr addr);

    /** Invalidate the whole cache (keeps statistics). */
    void invalidateAll();

    const std::string &name() const { return params.name; }
    std::uint64_t hits() const { return statHits; }
    std::uint64_t misses() const { return statMisses; }
    std::uint64_t writebacks() const { return statWritebacks; }
    std::uint64_t prefetchFills() const { return statPrefetchFills; }
    Cycle hitLatency() const { return params.hitLatency; }

    /** Export statistics into @p registry under this cache's name. */
    void exportStats(StatRegistry &registry) const;

    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;  ///< LRU timestamp

        DYNASPAM_FIELDS(Line, tag, valid, dirty, lastUse)

        bool operator==(const Line &) const = default;
    };

    /**
     * Complete mutable state of one cache level: the line array plus the
     * LRU clock and the statistic counters. Geometry (params, level
     * chaining) is construction-time configuration and is not captured;
     * restore() requires a Cache built with the same geometry.
     */
    struct SavedState
    {
        std::vector<Line> lines;
        std::uint64_t useClock = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t prefetchFills = 0;

        DYNASPAM_FIELDS(SavedState, lines, useClock, hits, misses, writebacks,
                        prefetchFills)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when @p in has this cache's line count. */
    bool
    fits(const SavedState &in) const
    {
        return in.lines.size() == lines.size();
    }

    /** Copy the mutable state into @p out (reuses its capacity). */
    void
    save(SavedState &out) const
    {
        out.lines = lines;
        out.useClock = useClock;
        out.hits = statHits;
        out.misses = statMisses;
        out.writebacks = statWritebacks;
        out.prefetchFills = statPrefetchFills;
    }

    /** Restore state captured by save(). The geometry must match. */
    void
    restore(const SavedState &in)
    {
        lines = in.lines;
        useClock = in.useClock;
        statHits = in.hits;
        statMisses = in.misses;
        statWritebacks = in.writebacks;
        statPrefetchFills = in.prefetchFills;
    }

  private:

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params;
    Cache *nextLevel;
    Cycle memLatency;

    std::size_t numSets;
    std::vector<Line> lines;    ///< numSets * assoc, set-major
    std::uint64_t useClock = 0;

    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statWritebacks = 0;
    std::uint64_t statPrefetchFills = 0;
};

/**
 * The paper's Table 4 memory hierarchy: split 64 KiB 2-way 2-cycle L1I/L1D
 * over a shared 2 MiB 8-way 20-cycle L2, 64-byte blocks everywhere.
 */
class MemoryHierarchy
{
  public:
    struct Params
    {
        CacheParams l1i{"l1i", 64 * 1024, 2, 64, 2};
        CacheParams l1d{"l1d", 64 * 1024, 2, 64, 2};
        CacheParams l2{"l2", 2 * 1024 * 1024, 8, 64, 20};
        Cycle memoryLatency = 100;
    };

    MemoryHierarchy() : MemoryHierarchy(Params{}) {}
    explicit MemoryHierarchy(const Params &params);

    /**
     * Timing access for an instruction fetch. A simple next-line
     * prefetcher fills the sequentially following block so straight-line
     * code streams from the L1I after the first demand miss.
     */
    AccessResult
    fetchAccess(Addr addr)
    {
        auto result = l1iCache.access(addr, false);
        l1iCache.prefetch(addr + 64);
        return result;
    }
    /**
     * Timing access for a data load/store. A next-line prefetcher keeps
     * streaming access patterns resident (modern L1Ds ship stream
     * prefetchers; both the host pipeline and the fabric LDST units see
     * the same behaviour).
     */
    AccessResult
    dataAccess(Addr addr, bool is_write)
    {
        auto result = l1dCache.access(addr, is_write);
        l1dCache.prefetch(addr + 64);
        return result;
    }

    Cache &l1i() { return l1iCache; }
    Cache &l1d() { return l1dCache; }
    Cache &l2() { return l2Cache; }
    const Cache &l1i() const { return l1iCache; }
    const Cache &l1d() const { return l1dCache; }
    const Cache &l2() const { return l2Cache; }

    void exportStats(StatRegistry &registry) const;

    /** Mutable state of all three levels. */
    struct SavedState
    {
        Cache::SavedState l2;
        Cache::SavedState l1i;
        Cache::SavedState l1d;

        DYNASPAM_FIELDS(SavedState, l2, l1i, l1d)

        bool operator==(const SavedState &) const = default;
    };

    bool
    fits(const SavedState &in) const
    {
        return l2Cache.fits(in.l2) && l1iCache.fits(in.l1i) &&
               l1dCache.fits(in.l1d);
    }

    void
    save(SavedState &out) const
    {
        l2Cache.save(out.l2);
        l1iCache.save(out.l1i);
        l1dCache.save(out.l1d);
    }

    void
    restore(const SavedState &in)
    {
        l2Cache.restore(in.l2);
        l1iCache.restore(in.l1i);
        l1dCache.restore(in.l1d);
    }

  private:
    Cache l2Cache;
    Cache l1iCache;
    Cache l1dCache;
};

} // namespace dynaspam::mem

#endif // DYNASPAM_MEMORY_CACHE_HH
