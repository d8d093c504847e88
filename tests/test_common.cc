/**
 * @file
 * Unit tests for the common module: stats, histogram, RNG, logging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
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
