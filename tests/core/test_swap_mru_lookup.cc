#include <gtest/gtest.h>

#include <vector>

#include "core/mru_lookup.h"
#include "core/probe_meter.h"

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

TEST(SwapMruLookup, ProbesEqualMruDistance)
{
    MruLookup swap = MruLookup::swapping();
    SetFixture s = fourWay();
    // No list-read probe: a hit at distance d costs exactly d.
    EXPECT_EQ(swap.lookup(s.input(0xC)).probes, 1u);
    EXPECT_EQ(swap.lookup(s.input(0xA)).probes, 2u);
    EXPECT_EQ(swap.lookup(s.input(0xD)).probes, 3u);
    EXPECT_EQ(swap.lookup(s.input(0xB)).probes, 4u);
}

TEST(SwapMruLookup, MissCostsAssociativityProbes)
{
    MruLookup swap = MruLookup::swapping();
    SetFixture s = fourWay();
    LookupResult r = swap.lookup(s.input(0x9));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 4u); // no wasted list read, unlike MRU
}

TEST(SwapMruLookup, AlwaysOneProbeCheaperThanListMru)
{
    MruLookup swap = MruLookup::swapping();
    MruLookup mru;
    SetFixture s = fourWay();
    for (std::uint32_t tag : {0xAu, 0xBu, 0xCu, 0xDu, 0x9u}) {
        EXPECT_EQ(swap.lookup(s.input(tag)).probes + 1,
                  mru.lookup(s.input(tag)).probes);
    }
}

TEST(SwapMruLookup, FindsTheRightWay)
{
    MruLookup swap = MruLookup::swapping();
    SetFixture s = fourWay();
    LookupResult r = swap.lookup(s.input(0xD));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 3);
}

/** The swapping MRU scan metered the way ProbeMeter meters it, so
 *  swapMruMoves() derives the block moves from the stats. */
struct Metered
{
    MruLookup swap = MruLookup::swapping();
    ProbeStats stats;

    void
    lookup(const LookupInput &in)
    {
        stats.events += swap.lookup(in).events;
        ++stats.metered;
    }
};

TEST(SwapMruLookup, CountsSwapsForReordering)
{
    Metered m;
    SetFixture s = fourWay();
    EXPECT_EQ(swapMruMoves(m.stats), 0u);
    m.lookup(s.input(0xC)); // MRU hit: nothing moves
    EXPECT_EQ(swapMruMoves(m.stats), 0u);
    m.lookup(s.input(0xB)); // distance 4: 3 blocks shift down
    EXPECT_EQ(swapMruMoves(m.stats), 3u);
    m.lookup(s.input(0x9)); // miss: a-1 = 3 blocks shift down
    EXPECT_EQ(swapMruMoves(m.stats), 6u);
}

TEST(SwapMruLookup, TwoWayIsTheViableCase)
{
    // The paper: "maintaining MRU order using swapping may be
    // feasible for a 2-way set-associative cache". At 2-way, at
    // most one block moves per access.
    Metered m;
    SetFixture s{{0xA, 0xB}, {1, 1}, {1, 0}};
    m.lookup(s.input(0xB)); // MRU: 0 moves
    m.lookup(s.input(0xA)); // distance 2: 1 move
    m.lookup(s.input(0x9)); // miss: 1 move
    EXPECT_EQ(swapMruMoves(m.stats), 2u);
}

TEST(SwapMruLookup, Name)
{
    EXPECT_EQ(MruLookup::swapping().name(), "SwapMRU");
}

} // namespace
} // namespace core
} // namespace assoc
