/**
 * @file
 * Concurrency stress tests for the experiment runner, intended to be
 * run under ThreadSanitizer (the `tsan` CMake preset builds exactly
 * this target plus the library). The scenarios deliberately maximize
 * cross-thread interleavings: many small parallelFor batches, nested
 * use of a shared ResultCache directory with both distinct and
 * identical jobs racing on the same cache files, and exception
 * propagation out of worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_cache.hh"
#include "runner/thread_pool.hh"
#include "sim/system.hh"

using namespace dynaspam;
using runner::Job;
using runner::ResultCache;
using runner::ThreadPool;

namespace
{

/** Unique-ish scratch directory under the test's working dir. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = "stress-cache-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

sim::RunResult
fakeResult(std::uint64_t cycles)
{
    sim::RunResult r;
    r.cycles = cycles;
    r.instsTotal = cycles * 2;
    return r;
}

Job
jobFor(std::size_t i)
{
    Job j;
    j.workload = "wl" + std::to_string(i);
    j.traceLength = unsigned(16 + i % 4);
    j.scale = unsigned(1 + i % 3);
    return j;
}

} // namespace

TEST(ThreadPoolStress, ManySmallBatches)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (int batch = 0; batch < 50; batch++) {
        pool.parallelFor(64, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    // 50 * (1 + 2 + ... + 64)
    EXPECT_EQ(sum.load(), 50u * (64u * 65u / 2u));
}

TEST(ThreadPoolStress, IndexedSlotsNeedNoLocking)
{
    // The documented usage contract: each task writes only its own slot,
    // so the result vector needs no synchronization beyond the batch
    // barrier parallelFor provides.
    ThreadPool pool(8);
    std::vector<std::uint64_t> out(2048, 0);
    pool.parallelFor(out.size(),
                     [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); i++)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolStress, ExceptionFromWorkerPropagates)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(32,
                                  [&](std::size_t i) {
                                      ran.fetch_add(1);
                                      if (i == 13)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The batch still drains: every task ran exactly once.
    EXPECT_EQ(ran.load(), 32);

    // And the pool is reusable after a failed batch.
    std::atomic<int> again{0};
    pool.parallelFor(16, [&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 16);
}

TEST(ResultCacheStress, ConcurrentDistinctJobs)
{
    const std::string dir = scratchDir("distinct");
    ResultCache cache(dir);
    ThreadPool pool(8);

    const std::size_t n = 128;
    pool.parallelFor(n, [&](std::size_t i) {
        const Job j = jobFor(i);
        cache.store(j, fakeResult(100 + i));
        const auto back = cache.load(j);
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(back->cycles, 100 + i);
    });

    // Every entry independently reloadable afterwards.
    for (std::size_t i = 0; i < n; i++) {
        const auto back = cache.load(jobFor(i));
        ASSERT_TRUE(back.has_value()) << "job " << i;
        EXPECT_EQ(back->cycles, 100 + i);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheStress, ConcurrentWritersSameJob)
{
    // Many threads hammering the *same* cache file. The atomic
    // temp-file + rename protocol must never expose a torn entry: every
    // load sees either a miss or one of the complete written values.
    const std::string dir = scratchDir("samejob");
    ResultCache cache(dir);
    ThreadPool pool(8);

    Job j;
    j.workload = "contended";

    std::atomic<std::uint64_t> badLoads{0};
    pool.parallelFor(256, [&](std::size_t i) {
        cache.store(j, fakeResult(1000 + i % 7));
        const auto back = cache.load(j);
        if (back.has_value()
            && (back->cycles < 1000 || back->cycles > 1006))
            badLoads.fetch_add(1);
    });
    EXPECT_EQ(badLoads.load(), 0u);

    const auto final_entry = cache.load(j);
    ASSERT_TRUE(final_entry.has_value());
    EXPECT_GE(final_entry->cycles, 1000u);
    EXPECT_LE(final_entry->cycles, 1006u);
    std::filesystem::remove_all(dir);
}

TEST(SnapshotCacheStress, ConcurrentWritersSameGroup)
{
    // The snapshot cache shares the result cache's write protocol: many
    // threads storing the same fork group's frame must never expose a
    // torn one. Every load is a miss or one complete body, and a body
    // is only ever returned for the input hash it was stored with.
    const std::string dir = scratchDir("samegroup");
    runner::SnapshotCache cache(dir);
    ThreadPool pool(8);
    const auto bodyFor = [](std::size_t v) {
        return std::string(4096 + v * 512, char('a' + v));
    };

    std::atomic<std::uint64_t> badLoads{0};
    pool.parallelFor(256, [&](std::size_t i) {
        const std::size_t v = i % 7;
        cache.store("contended-group", v, bodyFor(v));
        bool rejected = false;
        const auto back = cache.load("contended-group", v, &rejected);
        if (back.has_value() && *back != bodyFor(v))
            badLoads.fetch_add(1);
    });
    EXPECT_EQ(badLoads.load(), 0u);

    std::size_t found = 0;
    for (std::size_t v = 0; v < 7; v++)
        if (const auto back = cache.load("contended-group", v)) {
            EXPECT_EQ(*back, bodyFor(v));
            found++;
        }
    EXPECT_EQ(found, 1u) << "exactly one complete frame survives";
    for (const auto &de : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(de.path().extension(), ".snap")
            << "temp file left behind: " << de.path();
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheStress, MixedLoadStoreAcrossBatches)
{
    // Interleave a warm-up batch, a read-mostly batch and an
    // overwrite batch, reusing the same pool — exercises worker wake /
    // sleep transitions between batches under TSan as well.
    const std::string dir = scratchDir("mixed");
    ResultCache cache(dir);
    ThreadPool pool(4);
    const std::size_t n = 64;

    pool.parallelFor(n, [&](std::size_t i) {
        cache.store(jobFor(i), fakeResult(i));
    });
    std::atomic<std::uint64_t> hits{0};
    pool.parallelFor(n * 4, [&](std::size_t i) {
        if (cache.load(jobFor(i % n)).has_value())
            hits.fetch_add(1);
    });
    EXPECT_EQ(hits.load(), n * 4);
    pool.parallelFor(n, [&](std::size_t i) {
        cache.store(jobFor(i), fakeResult(i + 10000));
    });
    for (std::size_t i = 0; i < n; i++) {
        const auto back = cache.load(jobFor(i));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->cycles, i + 10000);
    }
    std::filesystem::remove_all(dir);
}
