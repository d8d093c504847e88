#include "runner/file_store.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/interrupt.hh"
#include "common/logging.hh"

namespace dynaspam::runner
{

namespace fs = std::filesystem;

FileStore::FileStore(std::string dir_, std::string ext_, std::string what_)
    : dir(std::move(dir_)), ext(std::move(ext_)), what(std::move(what_))
{
}

std::string
FileStore::pathFor(const std::string &stem) const
{
    return (fs::path(dir) / (stem + ext)).string();
}

std::optional<std::string>
FileStore::read(const std::string &stem) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream in(pathFor(stem), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
FileStore::touch(const std::string &stem) const
{
    // Best-effort: a failure (e.g. a read-only mount) just weakens
    // eviction ordering, never correctness.
    std::error_code ec;
    fs::last_write_time(pathFor(stem), fs::file_time_type::clock::now(),
                        ec);
}

void
FileStore::write(const std::string &stem, const std::string &bytes) const
{
    if (!enabled())
        return;

    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn(what, ": cannot create ", dir, ": ", ec.message());
        return;
    }

    const std::string final_path = pathFor(stem);
    // Unique temp name per writer so concurrent stores never interleave;
    // rename() is atomic within a filesystem.
    std::ostringstream tmp_name;
    tmp_name << final_path << ".tmp." << ::getpid() << "."
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp_path = tmp_name.str();

    const int cleanup = interrupt::registerCleanupFile(tmp_path.c_str());
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out) {
            warn(what, ": cannot write ", tmp_path);
            interrupt::unregisterCleanupFile(cleanup);
            return;
        }
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    fs::rename(tmp_path, final_path, ec);
    interrupt::unregisterCleanupFile(cleanup);
    if (ec) {
        warn(what, ": rename to ", final_path, " failed: ", ec.message());
        fs::remove(tmp_path, ec);
    }
}

CacheGcStats
FileStore::gc(std::uint64_t max_bytes,
              const std::function<bool(const std::string &)> &valid) const
{
    CacheGcStats stats;
    if (!enabled())
        return stats;

    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return stats;    // absent directory: nothing to collect

    struct Entry
    {
        std::string path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> live;

    for (const fs::directory_entry &de : it) {
        if (!de.is_regular_file(ec) || ec)
            continue;
        const std::string name = de.path().filename().string();
        const std::uint64_t size = de.file_size(ec);
        if (ec)
            continue;

        if (name.find(".tmp.") != std::string::npos) {
            const fs::file_time_type mtime = de.last_write_time(ec);
            if (ec)
                continue;
            const auto age = fs::file_time_type::clock::now() - mtime;
            if (age < std::chrono::seconds(kCacheTmpGraceSeconds))
                continue;
            if (fs::remove(de.path(), ec))
                stats.tmpRemoved++;
            continue;
        }
        if (name.size() < ext.size() ||
            name.compare(name.size() - ext.size(), ext.size(), ext) != 0)
            continue;

        stats.scanned++;
        stats.bytesBefore += size;

        std::optional<std::string> bytes =
            read(name.substr(0, name.size() - ext.size()));
        if (!bytes || !valid(*bytes)) {
            if (fs::remove(de.path(), ec))
                stats.staleEvicted++;
            continue;
        }
        live.push_back(
            Entry{de.path().string(), size, de.last_write_time(ec)});
    }

    std::uint64_t total = 0;
    for (const Entry &e : live)
        total += e.size;

    if (max_bytes && total > max_bytes) {
        std::sort(live.begin(), live.end(),
                  [](const Entry &a, const Entry &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path;
                  });
        for (const Entry &e : live) {
            if (total <= max_bytes)
                break;
            if (fs::remove(e.path, ec)) {
                stats.lruEvicted++;
                total -= e.size;
            }
        }
    }
    stats.bytesAfter = total;
    return stats;
}

} // namespace dynaspam::runner
