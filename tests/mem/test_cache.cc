#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "mem/cache.h"
#include "util/logging.h"
#include "util/rng.h"

namespace assoc {
namespace mem {
namespace {

WriteBackCache
makeCache(std::uint32_t size = 1024, std::uint32_t block = 16,
          std::uint32_t assoc = 4)
{
    return WriteBackCache(CacheGeometry(size, block, assoc));
}

TEST(WriteBackCache, StartsEmpty)
{
    WriteBackCache c = makeCache();
    for (std::uint32_t set = 0; set < c.geom().sets(); ++set) {
        EXPECT_EQ(c.validCount(set), 0u);
        for (std::uint32_t w = 0; w < c.geom().assoc(); ++w)
            EXPECT_FALSE(c.line(set, static_cast<int>(w)).valid);
    }
}

TEST(WriteBackCache, FillThenFind)
{
    WriteBackCache c = makeCache();
    BlockAddr b = c.geom().blockAddrOf(0x1234);
    EXPECT_EQ(c.findWay(b), -1);
    FillResult fr = c.fill(b, false);
    EXPECT_FALSE(fr.evicted);
    EXPECT_EQ(c.findWay(b), fr.way);
}

TEST(WriteBackCache, DoubleFillPanics)
{
    WriteBackCache c = makeCache();
    c.fill(5, false);
    EXPECT_THROW(c.fill(5, false), PanicError);
}

TEST(WriteBackCache, FillsUseEmptyFramesFirst)
{
    WriteBackCache c = makeCache(1024, 16, 4);
    std::uint32_t sets = c.geom().sets();
    // Four blocks mapping to set 0.
    for (std::uint32_t i = 0; i < 4; ++i) {
        FillResult fr = c.fill(i * sets, false);
        EXPECT_FALSE(fr.evicted) << "eviction before the set filled";
    }
    EXPECT_EQ(c.validCount(0), 4u);
}

TEST(WriteBackCache, LruEvictionOrder)
{
    WriteBackCache c = makeCache(1024, 16, 4);
    std::uint32_t sets = c.geom().sets();
    for (std::uint32_t i = 0; i < 4; ++i)
        c.fill(i * sets, false);
    // Touch block 0 to make block 1*sets the LRU.
    c.touch(0, c.findWay(0));
    FillResult fr = c.fill(4 * sets, false);
    EXPECT_TRUE(fr.evicted);
    EXPECT_EQ(fr.victim_block, 1 * sets);
    EXPECT_FALSE(fr.victim_dirty);
    EXPECT_EQ(c.findWay(1 * sets), -1);
}

TEST(WriteBackCache, DirtyVictimReported)
{
    WriteBackCache c = makeCache(64, 16, 4); // one set
    unsigned dirty_victims = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        dirty_victims += c.fill(i, i == 0).victim_dirty;
    FillResult fr = c.fill(4, false);
    dirty_victims += fr.victim_dirty;
    EXPECT_TRUE(fr.evicted);
    EXPECT_EQ(fr.victim_block, 0u);
    EXPECT_TRUE(fr.victim_dirty);
    EXPECT_EQ(dirty_victims, 1u);
}

TEST(WriteBackCache, SetDirtyMarksLine)
{
    WriteBackCache c = makeCache();
    FillResult fr = c.fill(7, false);
    std::uint32_t set = c.geom().setOf(7);
    EXPECT_FALSE(c.line(set, fr.way).dirty);
    c.setDirty(set, fr.way);
    EXPECT_TRUE(c.line(set, fr.way).dirty);
}

TEST(WriteBackCache, SetDirtyOnInvalidPanics)
{
    WriteBackCache c = makeCache();
    EXPECT_THROW(c.setDirty(0, 0), PanicError);
}

TEST(WriteBackCache, MruOrderTracksTouches)
{
    WriteBackCache c = makeCache(64, 16, 4);
    for (std::uint32_t i = 0; i < 4; ++i)
        c.fill(i, false);
    // Fill order 0,1,2,3: MRU order should be 3,2,1,0 by way of
    // the fill promotions (block i went to way i).
    auto order = c.mruOrder(0);
    int w3 = c.findWay(3), w0 = c.findWay(0);
    EXPECT_EQ(order.front(), static_cast<std::uint8_t>(w3));
    EXPECT_EQ(order.back(), static_cast<std::uint8_t>(w0));

    c.touch(0, w0);
    order = c.mruOrder(0);
    EXPECT_EQ(order.front(), static_cast<std::uint8_t>(w0));
}

TEST(WriteBackCache, MruOrderIsAlwaysAPermutation)
{
    WriteBackCache c = makeCache(64, 16, 4);
    Pcg32 rng(3);
    for (int i = 0; i < 500; ++i) {
        BlockAddr b = rng.below(12);
        int way = c.findWay(b);
        if (way >= 0)
            c.touch(0, way);
        else
            c.fill(b, rng.chance(0.5));
        auto order = c.mruOrder(0);
        std::vector<std::uint8_t> sorted(order.begin(), order.end());
        std::sort(sorted.begin(), sorted.end());
        for (std::uint8_t w = 0; w < 4; ++w)
            ASSERT_EQ(sorted[w], w);
    }
}

TEST(WriteBackCache, InvalidateRemovesAndReportsDirty)
{
    WriteBackCache c = makeCache();
    c.fill(9, true);
    EXPECT_TRUE(c.invalidate(9));
    EXPECT_EQ(c.findWay(9), -1);
    EXPECT_FALSE(c.invalidate(9)); // already gone
    c.fill(10, false);
    EXPECT_FALSE(c.invalidate(10)); // clean
}

TEST(WriteBackCache, InvalidatedFrameIsReusedFirst)
{
    WriteBackCache c = makeCache(64, 16, 4);
    for (std::uint32_t i = 0; i < 4; ++i)
        c.fill(i, false);
    int freed = c.findWay(2);
    c.invalidate(2);
    FillResult fr = c.fill(4, false);
    EXPECT_EQ(fr.way, freed);
    EXPECT_FALSE(fr.evicted);
}

TEST(WriteBackCache, FlushEmptiesEverything)
{
    WriteBackCache c = makeCache();
    for (BlockAddr b = 0; b < 32; ++b)
        c.fill(b, b % 2 == 0);
    c.flush();
    for (BlockAddr b = 0; b < 32; ++b)
        EXPECT_EQ(c.findWay(b), -1);
    for (std::uint32_t set = 0; set < c.geom().sets(); ++set)
        EXPECT_EQ(c.validCount(set), 0u);
}

TEST(WriteBackCache, FillResultsCountFillsEvictionsAndDirtyVictims)
{
    WriteBackCache c = makeCache(32, 16, 2); // one set, 2 ways
    unsigned fills = 0, evictions = 0, dirty_evictions = 0;
    auto fill = [&](BlockAddr b, bool dirty) {
        FillResult fr = c.fill(b, dirty);
        fills += fr.way >= 0;
        evictions += fr.evicted;
        dirty_evictions += fr.victim_dirty;
    };
    fill(0, false);
    fill(1, true);
    fill(2, false); // evicts block 0 (LRU, clean)
    fill(3, false); // evicts block 1 (dirty)
    EXPECT_EQ(fills, 4u);
    EXPECT_EQ(evictions, 2u);
    EXPECT_EQ(dirty_evictions, 1u);
}

TEST(WriteBackCache, DirectMappedBehaviour)
{
    WriteBackCache c = makeCache(256, 16, 1);
    std::uint32_t sets = c.geom().sets();
    c.fill(0, false);
    FillResult fr = c.fill(sets, false); // same set, conflicts
    EXPECT_TRUE(fr.evicted);
    EXPECT_EQ(fr.victim_block, 0u);
    EXPECT_EQ(fr.way, 0);
}

/**
 * Property test: the cache agrees with a simple reference model
 * (per-set std::list LRU) over a long random workload.
 */
TEST(WriteBackCache, MatchesReferenceLruModel)
{
    const std::uint32_t assoc = 4;
    WriteBackCache c = makeCache(1024, 16, assoc);
    const std::uint32_t sets = c.geom().sets();

    // Reference model: per set, list of blocks MRU-first.
    std::vector<std::list<BlockAddr>> model(sets);

    Pcg32 rng(77);
    for (int i = 0; i < 50000; ++i) {
        BlockAddr b = rng.below(8 * 1024 / 16); // 8 KB footprint
        std::uint32_t set = c.geom().setOf(b);
        auto &lst = model[set];
        auto it = std::find(lst.begin(), lst.end(), b);

        int way = c.findWay(b);
        if (it != lst.end()) {
            ASSERT_GE(way, 0) << "model hit but cache missed";
            lst.erase(it);
            lst.push_front(b);
            c.touch(set, way);
        } else {
            ASSERT_EQ(way, -1) << "cache hit but model missed";
            FillResult fr = c.fill(b, false);
            if (lst.size() == assoc) {
                ASSERT_TRUE(fr.evicted);
                ASSERT_EQ(fr.victim_block, lst.back());
                lst.pop_back();
            } else {
                ASSERT_FALSE(fr.evicted);
            }
            lst.push_front(b);
        }
    }
}

} // namespace
} // namespace mem
} // namespace assoc
