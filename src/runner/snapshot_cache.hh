/**
 * @file
 * On-disk cache of serialized warmed snapshots keyed by fork group.
 *
 * Forked sweeps warm one representative simulation per fork group and
 * fork every member from the warmed state (runner/runner.cc). The warm
 * pass dominates sweep cost, and without this cache it dies with the
 * process: every `dynaspam sweep` restart, every cluster worker, pays
 * it again. The SnapshotCache persists the serialized snapshot body
 * (sim/snapshot_io.hh) so a warmed prefix survives restarts and repeat
 * sweeps resume from disk.
 *
 * One file per fork group under the cache directory:
 *
 *     <dir>/<fnv1a-hex-of-group-key>.snap
 *
 * framed as: magic "DSNP" | u32 format version | epoch string |
 * group-key string | u64 SimInput identity hash | u64 body checksum |
 * length-prefixed body. Loads validate every frame field — magic,
 * version (kSnapshotFormatVersion), epoch (kResultCacheEpoch: snapshot
 * bytes encode simulator behaviour, so the two caches roll together),
 * the full group key (collisions degrade to misses), the input identity
 * hash (never bind state to the wrong input) and an FNV-1a body
 * checksum — and any mismatch is a miss: the caller re-warms, counts a
 * reject, and overwrites the entry. Never UB, never silent divergence.
 *
 * The entry lifecycle is the FileStore's (runner/file_store.hh),
 * shared with ResultCache: atomic temp+rename writes, mtime refresh on
 * every hit, and a gc() that reaps old temp litter and entries whose
 * frame fails validation, then applies an LRU size budget
 * (`--snapshot-cache-max-mb`). This class owns only the DSNP frame.
 */

#ifndef DYNASPAM_RUNNER_SNAPSHOT_CACHE_HH
#define DYNASPAM_RUNNER_SNAPSHOT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "runner/result_cache.hh"

namespace dynaspam::runner
{

/** File-per-fork-group store of serialized snapshot bodies. */
class SnapshotCache
{
  public:
    /**
     * @param dir cache directory (created on first store); an empty
     *            string disables the cache entirely
     * @param epoch behaviour version tag; defaults to kResultCacheEpoch
     */
    explicit SnapshotCache(std::string dir,
                           std::string epoch = kResultCacheEpoch);

    bool enabled() const { return files.enabled(); }
    const std::string &directory() const { return files.directory(); }

    /** @return the cache file path for @p group_key (even disabled). */
    std::string pathFor(const std::string &group_key) const;

    /**
     * Look up the snapshot body for @p group_key captured over an input
     * with identity @p input_hash. @return the body bytes, or nullopt
     * on any kind of miss — absent, unreadable, bad magic, version or
     * epoch mismatch, key or input-hash mismatch, checksum failure.
     * Refreshes the entry's mtime on a hit (LRU). Never throws.
     *
     * When @p rejected is non-null it is set to true only if a file
     * existed but failed frame validation — letting callers count
     * version-rollover rejects separately from plain cold misses.
     */
    std::optional<std::string> load(const std::string &group_key,
                                    std::uint64_t input_hash,
                                    bool *rejected = nullptr) const;

    /**
     * Store @p body for @p group_key atomically (temp file + rename).
     * Failures warn() and are otherwise ignored — the cache is an
     * optimization, not a correctness dependency.
     */
    void store(const std::string &group_key, std::uint64_t input_hash,
               const std::string &body) const;

    /**
     * Garbage-collect (FileStore::gc): entries whose frame fails
     * validation (wrong magic/version/epoch, bad checksum) are stale.
     */
    CacheGcStats gc(std::uint64_t max_bytes = 0) const;

  private:
    FileStore files;
    std::string epoch;
};

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_SNAPSHOT_CACHE_HH
