/**
 * @file
 * Unit tests for the common module: stats, histogram, RNG, logging,
 * the Ring container.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"

using namespace dynaspam;

TEST(StatCounter, StartsAtZeroAndIncrements)
{
    StatCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(StatRegistry, CounterIsSharedByName)
{
    StatRegistry reg;
    reg.counter("x").inc(3);
    reg.counter("x").inc(4);
    EXPECT_EQ(reg.get("x"), 7u);
    EXPECT_EQ(reg.get("missing"), 0u);
}

TEST(Geomean, MatchesHandComputedValue)
{
    // geomean(2, 8) = 4
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Geomean, SkipsZeroEntries)
{
    // A zero measurement (e.g. a workload that committed nothing) used
    // to drive log() to -inf and the whole mean to 0; it is now skipped.
    EXPECT_NEAR(geomean({0.0, 2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, 0.0, 0.0}), 0.0);
}

TEST(Geomean, RejectsNegativeAndNaN)
{
    // log() of a negative used to return NaN and silently poison every
    // downstream comparison; both now fail loudly at the source.
    EXPECT_THROW(geomean({-1.0}), FatalError);
    EXPECT_THROW(geomean({2.0, -8.0}), FatalError);
    EXPECT_THROW(geomean({2.0, std::nan("")}), FatalError);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; i++) {
        auto v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value ", 42), FatalError);
    try {
        fatal("x=", 1, " y=", 2);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=1 y=2");
    }
}

namespace
{

/** @p ring's entries in age order, through its iterators. */
std::vector<int>
contents(const Ring<int> &ring)
{
    return {ring.begin(), ring.end()};
}

} // namespace

TEST(Ring, WrapsAroundAtCapacityWithoutGrowing)
{
    Ring<int> ring(4);
    ASSERT_EQ(ring.capacity(), 4u);
    // Push and pop far past the slot count: the head and tail wrap.
    for (int i = 0; i < 11; i++) {
        ring.push_back(i);
        if (ring.size() == 4)
            ring.pop_front();
    }
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(contents(ring), (std::vector<int>{8, 9, 10}));
    EXPECT_EQ(ring.front(), 8);
    EXPECT_EQ(ring.back(), 10);
    EXPECT_EQ(ring[1], 9);
}

TEST(Ring, CapacityIsAPowerOfTwoAndGrowsInAgeOrder)
{
    Ring<int> ring(192);
    EXPECT_EQ(ring.capacity(), 256u);

    Ring<int> small(2);
    small.push_back(1);
    small.push_back(2);
    small.pop_front();      // head now at slot 1
    small.push_back(3);     // wraps to slot 0
    small.push_back(4);     // full: doubles, oldest first
    EXPECT_EQ(small.capacity(), 4u);
    EXPECT_EQ(contents(small), (std::vector<int>{2, 3, 4}));
}

TEST(Ring, PopsFromBothEnds)
{
    Ring<int> ring(8);
    for (int i = 1; i <= 6; i++)
        ring.push_back(i);
    ring.pop_front();
    ring.pop_back();
    ring.pop_back();
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4}));
    ring.pop_front();
    ring.pop_front();
    ring.pop_back();
    EXPECT_TRUE(ring.empty());
    ring.push_back(7);
    EXPECT_EQ(ring.front(), 7);
    EXPECT_EQ(ring.back(), 7);
}

TEST(Ring, EraseFromTheMiddleKeepsAgeOrder)
{
    Ring<int> ring(4);
    for (int i = 0; i < 6; i++) {
        ring.push_back(i);
        if (ring.size() == 4)
            ring.pop_front();
    }
    ring.push_back(6);  // 3, 4, 5, 6 with the head mid-array
    ring.erase(1);
    EXPECT_EQ(contents(ring), (std::vector<int>{3, 5, 6}));
    ring.erase(2);
    EXPECT_EQ(contents(ring), (std::vector<int>{3, 5}));
    ring.erase(0);
    EXPECT_EQ(contents(ring), (std::vector<int>{5}));
    ring.push_back(7);
    EXPECT_EQ(contents(ring), (std::vector<int>{5, 7}));
}

TEST(Ring, EqualityIsByContentsWhateverTheHead)
{
    Ring<int> shifted(8), fresh(8);
    for (int i = 0; i < 7; i++) {
        shifted.push_back(i);
        shifted.pop_front();
    }
    for (int i : {10, 11, 12}) {
        shifted.push_back(i);
        fresh.push_back(i);
    }
    EXPECT_EQ(shifted, fresh);
    fresh.push_back(13);
    EXPECT_NE(shifted, fresh);
    fresh.pop_back();
    fresh.back() = 99;
    EXPECT_NE(shifted, fresh);

    // A copy is equal and starts its head at slot 0; the larger
    // destination capacity is kept.
    Ring<int> copy(64);
    copy = shifted;
    EXPECT_EQ(copy, shifted);
    EXPECT_EQ(copy.capacity(), 64u);
    EXPECT_EQ(Ring<int>(shifted), shifted);
}

TEST(Ring, ClearAndResizeValueInitialize)
{
    Ring<std::vector<int>> ring(2);
    ring.push_back({1, 2, 3});
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.resize(3);
    ASSERT_EQ(ring.size(), 3u);
    for (const std::vector<int> &entry : ring)
        EXPECT_TRUE(entry.empty());
    ring.emplace_back().push_back(4);
    EXPECT_EQ(ring.back(), std::vector<int>{4});
    ring.resize(1);
    EXPECT_EQ(ring.size(), 1u);
}
