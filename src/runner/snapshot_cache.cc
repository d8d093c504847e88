#include "runner/snapshot_cache.hh"

#include <cstdio>
#include <cstring>

#include "common/binio.hh"
#include "sim/snapshot_io.hh"

namespace dynaspam::runner
{

namespace
{

constexpr char kSnapshotMagic[4] = {'D', 'S', 'N', 'P'};

/**
 * Parse a snapshot file's frame. @return the body on success; nullopt
 * when any frame field fails validation. When @p group_key /
 * @p input_hash are provided they are matched too (gc passes nullptr
 * to validate the frame shape only).
 */
std::optional<std::string>
parseFrame(const std::string &bytes, const std::string &epoch,
           const std::string *group_key, const std::uint64_t *input_hash)
{
    binio::Reader in(bytes.data(), bytes.size());
    char magic[4];
    in.raw(magic, 4);
    if (!in.ok() || std::memcmp(magic, kSnapshotMagic, 4) != 0)
        return std::nullopt;
    if (in.u32() != sim::kSnapshotFormatVersion)
        return std::nullopt;
    if (in.str() != epoch)
        return std::nullopt;
    std::string stored_key = in.str();
    if (group_key && stored_key != *group_key)
        return std::nullopt;
    std::uint64_t stored_hash = in.u64();
    if (input_hash && stored_hash != *input_hash)
        return std::nullopt;
    std::uint64_t checksum = in.u64();
    std::string body = in.str();
    if (!in.ok() || in.remaining() != 0)
        return std::nullopt;
    if (bits::fnv1a(body.data(), body.size()) != checksum)
        return std::nullopt;
    return body;
}

/** Entry file stem: the FNV-1a of the group key, in hex. */
std::string
stemFor(const std::string &group_key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)bits::fnv1a(group_key.data(),
                                                  group_key.size()));
    return hex;
}

} // namespace

SnapshotCache::SnapshotCache(std::string dir_, std::string epoch_)
    : files(std::move(dir_), ".snap", "snapshot cache"),
      epoch(std::move(epoch_))
{
}

std::string
SnapshotCache::pathFor(const std::string &group_key) const
{
    return files.pathFor(stemFor(group_key));
}

std::optional<std::string>
SnapshotCache::load(const std::string &group_key,
                    std::uint64_t input_hash, bool *rejected) const
{
    if (rejected)
        *rejected = false;
    return files.load(stemFor(group_key), [&](const std::string &bytes) {
        std::optional<std::string> body =
            parseFrame(bytes, epoch, &group_key, &input_hash);
        if (!body && rejected)
            *rejected = true;
        return body;
    });
}

void
SnapshotCache::store(const std::string &group_key,
                     std::uint64_t input_hash,
                     const std::string &body) const
{
    if (!enabled())
        return;

    binio::Writer frame;
    frame.raw(kSnapshotMagic, 4);
    frame.u32(sim::kSnapshotFormatVersion);
    frame.str(epoch);
    frame.str(group_key);
    frame.u64(input_hash);
    frame.u64(bits::fnv1a(body.data(), body.size()));
    frame.str(body);
    files.write(stemFor(group_key), frame.bytes());
}

CacheGcStats
SnapshotCache::gc(std::uint64_t max_bytes) const
{
    return files.gc(max_bytes, [&](const std::string &bytes) {
        return parseFrame(bytes, epoch, nullptr, nullptr).has_value();
    });
}

} // namespace dynaspam::runner
