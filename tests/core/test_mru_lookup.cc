#include <gtest/gtest.h>

#include <vector>

#include "core/mru_lookup.h"
#include "util/logging.h"

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
fourWay()
{
    // Ways 0..3 hold 0xA,0xB,0xC,0xD; recency order: C,A,D,B.
    return SetFixture{{0xA, 0xB, 0xC, 0xD},
                      {1, 1, 1, 1},
                      {2, 0, 3, 1}};
}

TEST(MruLookup, FullListProbesAreOnePlusMruDistance)
{
    MruLookup mru; // full list
    SetFixture s = fourWay();
    // Distance 1 (tag C) -> 1 list probe + 1 tag probe.
    EXPECT_EQ(mru.lookup(s.input(0xC)).probes, 2u);
    EXPECT_EQ(mru.lookup(s.input(0xA)).probes, 3u);
    EXPECT_EQ(mru.lookup(s.input(0xD)).probes, 4u);
    EXPECT_EQ(mru.lookup(s.input(0xB)).probes, 5u);
}

TEST(MruLookup, MissCostsOnePlusAssociativity)
{
    MruLookup mru;
    SetFixture s = fourWay();
    LookupResult r = mru.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 5u);
}

TEST(MruLookup, FindsTheRightWay)
{
    MruLookup mru;
    SetFixture s = fourWay();
    LookupResult r = mru.lookup(s.input(0xD));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 3);
}

TEST(MruLookup, ReducedListSearchesListFirst)
{
    MruLookup mru2(2); // keep only the 2 most recent positions
    SetFixture s = fourWay();
    // In-list hits cost the same as the full list.
    EXPECT_EQ(mru2.lookup(s.input(0xC)).probes, 2u);
    EXPECT_EQ(mru2.lookup(s.input(0xA)).probes, 3u);
    // Tag D is at way 3, beyond the list. After probing list ways
    // {2,0}, the remaining ways are scanned in way order: 1, 3.
    // Probes: 1 (list) + 2 (list ways) + 2 (ways 1,3) = 5.
    EXPECT_EQ(mru2.lookup(s.input(0xD)).probes, 5u);
    // Tag B is at way 1: 1 + 2 + 1 = 4.
    EXPECT_EQ(mru2.lookup(s.input(0xB)).probes, 4u);
}

TEST(MruLookup, ReducedListMissStillProbesEveryTagOnce)
{
    MruLookup mru1(1);
    SetFixture s = fourWay();
    LookupResult r = mru1.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 5u); // 1 + 4, same as the full list
}

TEST(MruLookup, ListLongerThanAssocBehavesLikeFull)
{
    MruLookup mru(16);
    SetFixture s = fourWay();
    EXPECT_EQ(mru.lookup(s.input(0xB)).probes, 5u);
    EXPECT_EQ(mru.lookup(s.input(0x9)).probes, 5u);
}

TEST(MruLookup, ZeroMeansFullList)
{
    MruLookup full(0), explicit4(4);
    SetFixture s = fourWay();
    for (std::uint32_t tag : {0xAu, 0xBu, 0xCu, 0xDu, 0x9u}) {
        EXPECT_EQ(full.lookup(s.input(tag)).probes,
                  explicit4.lookup(s.input(tag)).probes);
    }
}

TEST(MruLookup, InvalidWaysCostProbesButNeverHit)
{
    SetFixture s{{0xA, 0xB, 0xC, 0xD},
                 {1, 1, 0, 1},
                 {2, 0, 3, 1}};
    MruLookup mru;
    // Tag C's way is invalid: overall miss with 1 + 4 probes.
    LookupResult r = mru.lookup(s.input(0xC));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 5u);
    // Tag A sits at distance 2; the invalid way before it still
    // costs a probe.
    EXPECT_EQ(mru.lookup(s.input(0xA)).probes, 3u);
}

TEST(MruLookup, Names)
{
    EXPECT_EQ(MruLookup().name(), "MRU");
    EXPECT_EQ(MruLookup(2).name(), "MRU-2");
}

/** Parameterized checks over all reduced-list lengths. */
class MruListLength : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MruListLength, InListHitsCostSameAsFullList)
{
    // A hit whose MRU distance is within the reduced list costs
    // exactly what the full list charges. (Out-of-list hits fall
    // back to way order and can cost more *or* less per access;
    // only the expectation degrades.)
    unsigned len = GetParam();
    MruLookup reduced(len), full(0);
    SetFixture s = fourWay();
    for (unsigned pos = 0; pos < len && pos < 4; ++pos) {
        std::uint32_t tag = s.tags[s.mru[pos]];
        EXPECT_EQ(reduced.lookup(s.input(tag)).probes,
                  full.lookup(s.input(tag)).probes)
            << "list position " << pos;
    }
}

TEST_P(MruListLength, MissCostIndependentOfListLength)
{
    unsigned len = GetParam();
    MruLookup reduced(len);
    SetFixture s = fourWay();
    LookupResult r = reduced.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 5u); // 1 + a, always
}

INSTANTIATE_TEST_SUITE_P(Lengths, MruListLength,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
} // namespace core
} // namespace assoc
