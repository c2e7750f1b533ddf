#include <gtest/gtest.h>

#include <vector>

#include "core/lookup.h"

namespace assoc {
namespace core {
namespace {

/** Convenience builder for LookupInput over explicit vectors. */
struct SetFixture
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> mru;

    SetFixture(std::vector<std::uint32_t> t, std::vector<std::uint8_t> v,
               std::vector<std::uint8_t> m)
        : tags(std::move(t)), valid(std::move(v)), mru(std::move(m))
    {}

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
fourWay()
{
    // Ways 0..3 hold tags 0xA, 0xB, 0xC, 0xD; MRU order 2,0,3,1.
    return SetFixture({0xA, 0xB, 0xC, 0xD}, {1, 1, 1, 1},
                      {2, 0, 3, 1});
}

TEST(TraditionalLookup, AlwaysOneProbe)
{
    TraditionalLookup trad;
    SetFixture s = fourWay();
    for (std::uint32_t tag : {0xAu, 0xBu, 0xCu, 0xDu, 0xEu}) {
        LookupResult r = trad.lookup(s.input(tag));
        EXPECT_EQ(r.probes, 1u);
    }
}

TEST(TraditionalLookup, FindsTheRightWay)
{
    TraditionalLookup trad;
    SetFixture s = fourWay();
    LookupResult r = trad.lookup(s.input(0xC));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 2);
    r = trad.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.way, -1);
}

TEST(TraditionalLookup, IgnoresInvalidWays)
{
    SetFixture s({0xA, 0xB, 0xC, 0xD}, {1, 0, 1, 1}, {2, 0, 3, 1});
    TraditionalLookup trad;
    LookupResult r = trad.lookup(s.input(0xB));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 1u);
}

TEST(NaiveLookup, ProbesEqualWayPositionPlusOne)
{
    NaiveLookup naive;
    SetFixture s = fourWay();
    EXPECT_EQ(naive.lookup(s.input(0xA)).probes, 1u);
    EXPECT_EQ(naive.lookup(s.input(0xB)).probes, 2u);
    EXPECT_EQ(naive.lookup(s.input(0xC)).probes, 3u);
    EXPECT_EQ(naive.lookup(s.input(0xD)).probes, 4u);
}

TEST(NaiveLookup, MissCostsAssociativityProbes)
{
    NaiveLookup naive;
    SetFixture s = fourWay();
    LookupResult r = naive.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 4u);
}

TEST(NaiveLookup, InvalidFramesStillCostProbes)
{
    // The tag RAM is read regardless of the valid bit.
    SetFixture s({0xA, 0xB, 0xC, 0xD}, {0, 0, 1, 1}, {2, 0, 3, 1});
    NaiveLookup naive;
    LookupResult r = naive.lookup(s.input(0xC));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.probes, 3u);
}

TEST(NaiveLookup, InvalidMatchingTagDoesNotHit)
{
    SetFixture s({0xA, 0xB, 0xC, 0xD}, {0, 1, 1, 1}, {2, 0, 3, 1});
    NaiveLookup naive;
    LookupResult r = naive.lookup(s.input(0xA));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 4u);
}

TEST(NaiveLookup, StopsAtFirstMatch)
{
    // Duplicate tags cannot happen in a real cache, but the scan
    // must terminate at the first match regardless.
    SetFixture s({0xA, 0xA, 0xA, 0xA}, {1, 1, 1, 1}, {0, 1, 2, 3});
    NaiveLookup naive;
    LookupResult r = naive.lookup(s.input(0xA));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 0);
    EXPECT_EQ(r.probes, 1u);
}

TEST(Lookup, DirectMappedDegenerateCase)
{
    SetFixture s({0x5}, {1}, {0});
    NaiveLookup naive;
    TraditionalLookup trad;
    EXPECT_EQ(naive.lookup(s.input(0x5)).probes, 1u);
    EXPECT_EQ(trad.lookup(s.input(0x5)).probes, 1u);
    EXPECT_EQ(naive.lookup(s.input(0x6)).probes, 1u);
}

TEST(Lookup, Names)
{
    EXPECT_EQ(TraditionalLookup().name(), "Traditional");
    EXPECT_EQ(NaiveLookup().name(), "Naive");
}

} // namespace
} // namespace core
} // namespace assoc
