#include "runner/result_cache.hh"

#include <sstream>

#include "common/logging.hh"
#include "runner/report.hh"
#include "runner/spec.hh"

namespace dynaspam::runner
{

namespace
{

/**
 * Decode an entry: the result when the document carries @p epoch and a
 * key equal to @p key (or, when @p key is null, the key of its own
 * "job" object, which then comes back through @p job).
 */
std::optional<sim::RunResult>
decodeEntry(const std::string &text, const std::string &epoch,
            const std::string *key, Job *job)
{
    try {
        json::Value doc = json::Value::parse(text);
        if (doc.at("epoch").asString() != epoch)
            return std::nullopt;
        if (!key)
            *job = jobFromJson(doc.at("job"));
        if (doc.at("key").asString() != (key ? *key : job->key()))
            return std::nullopt;
        return resultFromJson(doc.at("result"));
    } catch (const FatalError &) {
        // Corrupt or stale-schema entry: fall back to simulation.
        return std::nullopt;
    }
}

} // namespace

ResultCache::ResultCache(std::string dir_, std::string epoch_)
    : files(std::move(dir_), ".json", "result cache"),
      epoch(std::move(epoch_))
{
}

std::string
ResultCache::pathFor(const Job &job) const
{
    return files.pathFor(job.hashHex());
}

std::optional<sim::RunResult>
ResultCache::load(const Job &job) const
{
    const std::string key = job.key();
    return files.load(job.hashHex(), [&](const std::string &text) {
        return decodeEntry(text, epoch, &key, nullptr);
    });
}

std::optional<std::pair<Job, sim::RunResult>>
ResultCache::loadByHash(const std::string &hash_hex) const
{
    // The stem is attacker-adjacent (it arrives in a URL); only a
    // 16-char lowercase hex string may touch the filesystem.
    if (hash_hex.size() != 16 ||
        hash_hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return std::nullopt;

    return files.load(
        hash_hex,
        [&](const std::string &text)
            -> std::optional<std::pair<Job, sim::RunResult>> {
            Job job;
            std::optional<sim::RunResult> result =
                decodeEntry(text, epoch, nullptr, &job);
            if (!result)
                return std::nullopt;
            return std::make_pair(std::move(job), std::move(*result));
        });
}

void
ResultCache::store(const Job &job, const sim::RunResult &result) const
{
    if (!enabled())
        return;

    json::Object doc;
    doc.emplace("epoch", epoch);
    doc.emplace("key", job.key());
    doc.emplace("job", jobToJson(job));
    doc.emplace("result", resultToJson(result));

    std::ostringstream text;
    json::Value(std::move(doc)).write(text, 2);
    text << "\n";
    files.write(job.hashHex(), text.str());
}

CacheGcStats
ResultCache::gc(std::uint64_t max_bytes) const
{
    return files.gc(max_bytes, [&](const std::string &text) {
        try {
            return json::Value::parse(text).at("epoch").asString() == epoch;
        } catch (const FatalError &) {
            return false;
        }
    });
}

} // namespace dynaspam::runner
