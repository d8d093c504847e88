/**
 * @file
 * Configuration cache (Section 3.1, Table 4: 16-entry, direct mapped,
 * 3-bit saturation counter, threshold 4).
 *
 * Holds finished mappings keyed by trace identity. A newly mapped trace
 * starts with a zero counter; the counter increments each time the fetch
 * stage predicts the trace again, and offloading begins only once it
 * reaches the threshold — filtering out traces that appear only a few
 * times but would trigger reconfiguration overhead. Counters are
 * periodically cleared alongside the T-Cache.
 */

#ifndef DYNASPAM_CORE_CONFIGCACHE_HH
#define DYNASPAM_CORE_CONFIGCACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "fabric/config.hh"

namespace dynaspam::check
{
class StructureAuditor;
class FaultInjector;
} // namespace dynaspam::check

namespace dynaspam::core
{

/** Configuration-cache parameters (Table 4 defaults). */
struct ConfigCacheParams
{
    std::size_t entries = 16;
    unsigned counterBits = 3;
    unsigned offloadThreshold = 4;
    std::uint64_t clearInterval = 100000;   ///< lookups per counter clear
};

/** The configuration cache. */
class ConfigCache
{
  public:
    explicit ConfigCache(const ConfigCacheParams &p = ConfigCacheParams{});

    /** Outcome of an insert(): reports the colliding eviction, if any,
     *  so the caller — which knows the current cycle — can trace it. */
    struct InsertOutcome
    {
        bool evicted = false;
        std::uint64_t evictedKey = 0;
    };

    /** Store a completed mapping, evicting any colliding entry. */
    InsertOutcome insert(std::uint64_t key, fabric::FabricConfig config);

    /**
     * @return the config for @p key, or nullptr. Shared ownership so an
     * in-flight invocation survives a colliding eviction between its
     * dispatch and its start.
     */
    std::shared_ptr<const fabric::FabricConfig>
    find(std::uint64_t key) const;

    /** @return true when @p key is present (mapped). */
    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /**
     * The trace was predicted again by fetch: bump its counter.
     * @return true once the counter has reached the offload threshold.
     */
    bool recordPrediction(std::uint64_t key);

    /** @return true when @p key is present and ready to offload. */
    bool readyToOffload(std::uint64_t key) const;

    /**
     * Penalize @p key after an at-fault squash: its saturation counter
     * resets, so the trace must re-earn the offload threshold before it
     * occupies the fabric again. Chronic squashers throttle themselves.
     */
    void penalize(std::uint64_t key);

    std::uint64_t insertions() const { return state.insertions; }
    std::uint64_t evictions() const { return state.evictions; }

    struct Entry
    {
        bool valid = false;
        std::uint64_t key = 0;
        unsigned counter = 0;
        std::shared_ptr<const fabric::FabricConfig> config;

        DYNASPAM_FIELDS(Entry, valid, key, counter, config)

        /** Configs are immutable once inserted, so sharing the pointer
         *  is value equality for snapshot purposes. */
        bool operator==(const Entry &) const = default;
    };

    /**
     * Complete mutable cache state, held live as `state`. FabricConfig
     * objects are immutable after insertion, so a saved copy shares
     * ownership with the live cache rather than deep-copying the
     * configs.
     */
    struct SavedState
    {
        std::vector<Entry> entries;
        std::uint64_t lookups = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;

        DYNASPAM_FIELDS(SavedState, entries, lookups, insertions, evictions)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when @p in has this cache's geometry. */
    bool
    fits(const SavedState &in) const
    {
        return in.entries.size() == state.entries.size();
    }

    void save(SavedState &out) const { out = state; }
    void restore(const SavedState &in) { state = in; }

  private:
    /** The structure auditor inspects entries directly. */
    friend class dynaspam::check::StructureAuditor;
    /** The fault-injection self-test seeds violations directly. */
    friend class dynaspam::check::FaultInjector;

    std::size_t indexOf(std::uint64_t key) const
    {
        // Mix the outcome bits into the index so traces anchored at the
        // same branch with different outcomes spread across entries.
        return std::size_t((key ^ (key >> 3)) % state.entries.size());
    }

    ConfigCacheParams params;
    SavedState state;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_CONFIGCACHE_HH
