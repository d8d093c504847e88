/**
 * @file
 * The on-disk entry lifecycle shared by ResultCache and SnapshotCache.
 *
 * A FileStore is a directory of one-file entries, `<dir>/<stem><ext>`.
 * It owns everything about an entry except its bytes' meaning:
 *
 *  - load() reads an entry and hands the bytes to the caller's decoder;
 *    a decoded hit refreshes the entry's mtime, so mtime order is
 *    least-recently-used order;
 *  - write() stores atomically: the bytes go to a temp file unique to
 *    the writer (`<path>.tmp.<pid>.<thread>`), registered with the
 *    interrupt cleanup registry so a SIGINT mid-write unlinks it, then
 *    renamed into place. Concurrent writers never expose a torn entry;
 *  - gc() reaps temp litter older than the grace window (a fresh temp
 *    file belongs to a live writer racing the pass), evicts entries the
 *    caller's validity predicate rejects (stale epoch, bad frame), then
 *    evicts least-recently-used entries down to a size budget.
 *
 * Every failure is soft: an unreadable entry is a miss, a failed write
 * warns and is dropped. The caches are optimizations, never a
 * correctness dependency.
 */

#ifndef DYNASPAM_RUNNER_FILE_STORE_HH
#define DYNASPAM_RUNNER_FILE_STORE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace dynaspam::runner
{

/**
 * Temp files younger than this are presumed to belong to a live writer
 * and are skipped by gc(); only older litter (crashed/killed writers)
 * is reaped.
 */
inline constexpr std::uint64_t kCacheTmpGraceSeconds = 60;

/** What one gc pass scanned and removed. */
struct CacheGcStats
{
    std::uint64_t scanned = 0;      ///< entry files examined
    std::uint64_t staleEvicted = 0; ///< entries the predicate rejected
    std::uint64_t lruEvicted = 0;   ///< evicted to meet the size budget
    std::uint64_t tmpRemoved = 0;   ///< orphaned *.tmp.* writer litter
    std::uint64_t bytesBefore = 0;  ///< directory size before the pass
    std::uint64_t bytesAfter = 0;   ///< directory size after the pass
};

/** A directory of atomically written, LRU-collected entry files. */
class FileStore
{
  public:
    /**
     * @param dir store directory (created on first write); an empty
     *            string disables the store
     * @param ext entry file extension, e.g. ".json"
     * @param what name used in warnings, e.g. "result cache"
     */
    FileStore(std::string dir, std::string ext, std::string what);

    bool enabled() const { return !dir.empty(); }
    const std::string &directory() const { return dir; }

    /** @return the entry path for @p stem (even when disabled). */
    std::string pathFor(const std::string &stem) const;

    /**
     * Read the entry at @p stem and decode it with @p decode, which
     * returns an optional. A decoded value refreshes the entry's mtime.
     * @return nullopt when disabled, absent, unreadable or undecodable
     */
    template <class Decode>
    auto
    load(const std::string &stem, Decode &&decode) const
        -> decltype(decode(std::string()))
    {
        std::optional<std::string> bytes = read(stem);
        if (!bytes)
            return std::nullopt;
        auto value = decode(*bytes);
        if (value)
            touch(stem);
        return value;
    }

    /** Atomically replace the entry at @p stem with @p bytes. */
    void write(const std::string &stem, const std::string &bytes) const;

    /**
     * Garbage-collect: reap temp litter older than the grace window,
     * evict entries @p valid rejects, then — when @p max_bytes is
     * nonzero — evict least-recently-used entries (oldest mtime first,
     * path as tie-breaker) until the rest total at most @p max_bytes.
     */
    CacheGcStats gc(std::uint64_t max_bytes,
                    const std::function<bool(const std::string &)> &valid)
        const;

  private:
    std::optional<std::string> read(const std::string &stem) const;
    void touch(const std::string &stem) const;

    std::string dir;
    std::string ext;
    std::string what;
};

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_FILE_STORE_HH
