#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace assoc {
namespace {

TEST(SplitMix64, DeterministicForSameSeed)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Pcg32, DeterministicForSameSeedAndStream)
{
    Pcg32 a(7, 3), b(7, 3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsAreIndependent)
{
    Pcg32 a(7, 1), b(7, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Pcg32, ReseedRestartsTheSequence)
{
    Pcg32 a(9, 4);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.reseed(9, 4);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Pcg32, BelowStaysInRange)
{
    Pcg32 rng(123);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 31}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Pcg32, BelowZeroPanics)
{
    Pcg32 rng(1);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Pcg32, BelowIsRoughlyUniform)
{
    Pcg32 rng(99);
    const int buckets = 8, n = 80000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < n; ++i)
        ++count[rng.below(buckets)];
    for (int c : count) {
        EXPECT_GT(c, n / buckets * 0.9);
        EXPECT_LT(c, n / buckets * 1.1);
    }
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(5);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, ChanceMatchesProbability)
{
    Pcg32 rng(17);
    const int n = 50000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Pcg32, GeometricMeanMatchesTheory)
{
    Pcg32 rng(31);
    const double p = 0.25;
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(Geometric(p));
    // Mean of failures-before-success geometric is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, (1 - p) / p, 0.15);
}

TEST(Pcg32, GeometricRespectsCap)
{
    Pcg32 rng(32);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LE(rng.geometric(Geometric(0.001), 50), 50u);
}

TEST(Pcg32, GeometricWithPOneIsZero)
{
    Pcg32 rng(33);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.geometric(Geometric(1.0)), 0u);
}

TEST(Pcg32, GeometricRejectsBadP)
{
    Pcg32 rng(34);
    EXPECT_THROW(rng.geometric(Geometric(0.0)), PanicError);
    EXPECT_THROW(rng.geometric(Geometric(-0.5)), PanicError);
    EXPECT_THROW(rng.geometric(Geometric(1.5)), PanicError);
}

TEST(ZipfSampler, StaysInRange)
{
    Pcg32 rng(55);
    ZipfSampler zipf(0.8);
    for (std::uint32_t n : {1u, 2u, 5u, 100u, 5000u}) {
        for (int i = 0; i < 100; ++i)
            EXPECT_LT(zipf.draw(rng, n), n);
    }
}

TEST(ZipfSampler, RankZeroIsMostLikely)
{
    Pcg32 rng(56);
    ZipfSampler zipf(1.0);
    const std::uint32_t n = 64;
    std::vector<int> count(n, 0);
    for (int i = 0; i < 50000; ++i)
        ++count[zipf.draw(rng, n)];
    EXPECT_GT(count[0], count[1]);
    EXPECT_GT(count[1], count[8]);
    EXPECT_GT(count[0], count[n - 1] * 5);
}

TEST(ZipfSampler, EmptyRangePanics)
{
    Pcg32 rng(57);
    ZipfSampler zipf(1.0);
    EXPECT_THROW(zipf.draw(rng, 0), PanicError);
}

TEST(ZipfSampler, HandlesGrowingRange)
{
    // The trace generator's footprint grows; the sampler must stay
    // correct as n increases between draws.
    Pcg32 rng(58);
    ZipfSampler zipf(0.7);
    for (std::uint32_t n = 1; n < 3000; n += 7)
        EXPECT_LT(zipf.draw(rng, n), n);
}

} // namespace
} // namespace assoc
