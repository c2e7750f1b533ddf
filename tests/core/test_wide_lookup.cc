#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/analytic.h"
#include "core/mru_lookup.h"
#include "util/logging.h"
#include "util/rng.h"

namespace assoc {
namespace core {
namespace {

struct SetFixture
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> mru;

    LookupInput
    input(std::uint32_t incoming) const
    {
        // The 0/1 flags as the cache keeps them: one word.
        std::uint64_t word = 0;
        for (std::size_t w = 0; w < valid.size(); ++w)
            word |= std::uint64_t{valid[w] != 0} << w;
        return LookupInput(static_cast<unsigned>(tags.size()),
                           tags.data(), word, mru.data(),
                           incoming);
    }
};

SetFixture
eightWay()
{
    return SetFixture{{0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7},
                      {1, 1, 1, 1, 1, 1, 1, 1},
                      {7, 6, 5, 4, 3, 2, 1, 0}};
}

TEST(WideNaiveLookup, GroupsOfTwo)
{
    NaiveLookup wide = NaiveLookup::wide(2);
    SetFixture s = eightWay();
    EXPECT_EQ(wide.lookup(s.input(0xA0)).probes, 1u);
    EXPECT_EQ(wide.lookup(s.input(0xA1)).probes, 1u);
    EXPECT_EQ(wide.lookup(s.input(0xA2)).probes, 2u);
    EXPECT_EQ(wide.lookup(s.input(0xA7)).probes, 4u);
    EXPECT_EQ(wide.lookup(s.input(0xFF)).probes, 4u); // miss
}

TEST(WideNaiveLookup, WidthOneIsTheNaiveScan)
{
    NaiveLookup wide = NaiveLookup::wide(1);
    SetFixture s = eightWay();
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(wide.lookup(s.input(0xA0 + w)).probes, w + 1);
    EXPECT_EQ(wide.lookup(s.input(0xFF)).probes, 8u);
}

TEST(WideNaiveLookup, FullWidthIsTheTraditionalLookup)
{
    NaiveLookup wide = NaiveLookup::wide(8);
    SetFixture s = eightWay();
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(wide.lookup(s.input(0xA0 + w)).probes, 1u);
    EXPECT_EQ(wide.lookup(s.input(0xFF)).probes, 1u);
}

TEST(WideNaiveLookup, WidthNeedNotDivideAssociativity)
{
    NaiveLookup wide = NaiveLookup::wide(3);
    SetFixture s = eightWay();
    EXPECT_EQ(wide.lookup(s.input(0xA6)).probes, 3u);
    EXPECT_EQ(wide.lookup(s.input(0xA7)).probes, 3u);
    EXPECT_EQ(wide.lookup(s.input(0xFF)).probes, 3u);
}

TEST(WideMruLookup, ScansRecencyOrderInGroups)
{
    MruLookup wide = MruLookup::wide(2);
    SetFixture s = eightWay(); // recency: A7, A6, ..., A0
    // 1 list probe + group of the hit.
    EXPECT_EQ(wide.lookup(s.input(0xA7)).probes, 2u);
    EXPECT_EQ(wide.lookup(s.input(0xA6)).probes, 2u);
    EXPECT_EQ(wide.lookup(s.input(0xA5)).probes, 3u);
    EXPECT_EQ(wide.lookup(s.input(0xA0)).probes, 5u);
    EXPECT_EQ(wide.lookup(s.input(0xFF)).probes, 5u); // miss
}

TEST(WideLookup, HitWayIsCorrect)
{
    NaiveLookup wn = NaiveLookup::wide(4);
    MruLookup wm = MruLookup::wide(4);
    SetFixture s = eightWay();
    EXPECT_EQ(wn.lookup(s.input(0xA5)).way, 5);
    EXPECT_EQ(wm.lookup(s.input(0xA5)).way, 5);
    EXPECT_FALSE(wn.lookup(s.input(0xFF)).hit);
    EXPECT_FALSE(wm.lookup(s.input(0xFF)).hit);
}

TEST(WideLookup, ZeroWidthIsFatal)
{
    EXPECT_THROW(NaiveLookup::wide(0), FatalError);
    EXPECT_THROW(MruLookup::wide(0), FatalError);
}

TEST(WideLookup, Names)
{
    EXPECT_EQ(NaiveLookup::wide(2).name(), "WideNaive-2");
    EXPECT_EQ(MruLookup::wide(4).name(), "WideMRU-4");
}

TEST(WideNaiveAnalytic, MatchesNarrowAndWideEndpoints)
{
    // b = 1 is the naive scan; b = a is the traditional lookup.
    EXPECT_DOUBLE_EQ(analytic::wideNaiveHit(8, 1), 4.5);
    EXPECT_DOUBLE_EQ(analytic::wideNaiveMiss(8, 1), 8.0);
    EXPECT_DOUBLE_EQ(analytic::wideNaiveHit(8, 8), 1.0);
    EXPECT_DOUBLE_EQ(analytic::wideNaiveMiss(8, 8), 1.0);
}

TEST(WideNaiveAnalytic, IntermediateWidths)
{
    // a = 8, b = 2: groups of 2, E[group] = (1+1+2+2+3+3+4+4)/8.
    EXPECT_DOUBLE_EQ(analytic::wideNaiveHit(8, 2), 2.5);
    EXPECT_DOUBLE_EQ(analytic::wideNaiveMiss(8, 2), 4.0);
    // a = 8, b = 3: groups cover 3,3,2 ways.
    EXPECT_DOUBLE_EQ(analytic::wideNaiveHit(8, 3),
                     (3 * 1 + 3 * 2 + 2 * 3) / 8.0);
    EXPECT_DOUBLE_EQ(analytic::wideNaiveMiss(8, 3), 3.0);
}

TEST(WideLookup, WidthOneEquivalences)
{
    // WideNaive-1 == Naive and WideMRU-1 == MRU, probe for probe,
    // over random set states.
    NaiveLookup wn = NaiveLookup::wide(1);
    NaiveLookup n;
    MruLookup wm = MruLookup::wide(1);
    MruLookup m;
    Pcg32 rng(0x71de);
    for (int trial = 0; trial < 2000; ++trial) {
        SetFixture s = eightWay();
        for (auto &t : s.tags)
            t = rng.next() & 0xff;
        // Random recency permutation.
        for (unsigned w = 7; w > 0; --w)
            std::swap(s.mru[w], s.mru[rng.below(w + 1)]);
        std::uint32_t incoming = rng.chance(0.6)
                                     ? s.tags[rng.below(8)]
                                     : (rng.next() & 0xff);
        LookupInput in = s.input(incoming);
        LookupResult a = wn.lookup(in), b = n.lookup(in);
        ASSERT_EQ(a.probes, b.probes);
        ASSERT_EQ(a.hit, b.hit);
        LookupResult c = wm.lookup(in), d = m.lookup(in);
        ASSERT_EQ(c.probes, d.probes);
        ASSERT_EQ(c.hit, d.hit);
    }
}

TEST(WideLookup, WiderIsNeverMoreProbes)
{
    // Monotonicity: increasing b can only reduce (or hold) the
    // probe count for the same input.
    Pcg32 rng(0x8a8a);
    for (int trial = 0; trial < 2000; ++trial) {
        SetFixture s = eightWay();
        for (auto &t : s.tags)
            t = rng.next() & 0xff;
        std::uint32_t incoming = rng.chance(0.6)
                                     ? s.tags[rng.below(8)]
                                     : (rng.next() & 0xff);
        LookupInput in = s.input(incoming);
        unsigned prev = ~0u;
        for (unsigned b : {1u, 2u, 4u, 8u}) {
            unsigned probes =
                NaiveLookup::wide(b).lookup(in).probes;
            ASSERT_LE(probes, prev) << "b=" << b;
            prev = probes;
        }
    }
}

TEST(WideNaiveAnalytic, MeasuredMatchesFormulaOnUniformHits)
{
    NaiveLookup wide = NaiveLookup::wide(2);
    SetFixture s = eightWay();
    double total = 0;
    for (unsigned w = 0; w < 8; ++w)
        total += wide.lookup(s.input(0xA0 + w)).probes;
    EXPECT_DOUBLE_EQ(total / 8.0, analytic::wideNaiveHit(8, 2));
}

} // namespace
} // namespace core
} // namespace assoc
