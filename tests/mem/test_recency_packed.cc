/**
 * @file
 * Randomized equivalence tests for the recency orders: the byte-slot
 * words (eight way slots to a std::uint64_t, ceil(a / 8) words per
 * set and order) must evolve exactly like a straightforward
 * reference vector under every operation the cache performs —
 * promote on touch/fill, demote on invalidate, rotation reset on
 * flush — and setOrder() must be that plane itself.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.h"
#include "util/rng.h"

using namespace assoc;
using namespace assoc::mem;

namespace {

/** Reference model: one vector per order, explicit list surgery. */
struct RefOrders
{
    std::vector<std::uint8_t> mru;  ///< front = most recent
    std::vector<std::uint8_t> fifo; ///< front = youngest fill

    explicit RefOrders(unsigned a, std::uint32_t set)
    {
        // Matches the cache's cold-start rotation: way (i + set) % a
        // at position i of both orders.
        for (unsigned i = 0; i < a; ++i) {
            auto w = static_cast<std::uint8_t>((i + set) % a);
            mru.push_back(w);
            fifo.push_back(w);
        }
    }

    static void
    promote(std::vector<std::uint8_t> &order, std::uint8_t way)
    {
        auto it = std::find(order.begin(), order.end(), way);
        ASSERT_NE(it, order.end());
        order.erase(it);
        order.insert(order.begin(), way);
    }

    static void
    demote(std::vector<std::uint8_t> &order, std::uint8_t way)
    {
        auto it = std::find(order.begin(), order.end(), way);
        ASSERT_NE(it, order.end());
        order.erase(it);
        order.push_back(way);
    }
};

/**
 * Drive one single-set cache and the reference model through the
 * same random operation sequence and compare decoded orders after
 * every step. A one-set geometry (sets == 1 via size == block * a)
 * keeps every operation in set 0 without loss of generality: order
 * state is strictly per-set.
 */
void
runEquivalence(unsigned a, std::uint64_t seed)
{
    const std::uint32_t block = 16;
    WriteBackCache cache(CacheGeometry(block * a, block, a));
    RefOrders ref(a, 0);
    Pcg32 rng(seed);

    // block-aligned addresses all mapping to set 0
    auto blockOf = [&](unsigned i) {
        return static_cast<BlockAddr>(i);
    };
    std::vector<int> way_of(2 * a, -1); // block -> way or -1

    for (int step = 0; step < 4000; ++step) {
        const unsigned b = rng.below(2 * a);
        const double roll = rng.uniform();
        if (roll < 0.45) {
            // touch (hit path) if present, else fill
            if (way_of[b] >= 0) {
                cache.touch(0, way_of[b]);
                RefOrders::promote(ref.mru,
                                   static_cast<std::uint8_t>(
                                       way_of[b]));
            } else {
                int victim = cache.victimWay(0);
                FillResult fr = cache.fill(blockOf(b), false);
                ASSERT_EQ(fr.way, victim);
                for (auto &w : way_of)
                    if (w == fr.way)
                        w = -1; // displaced (or same frame reused)
                way_of[b] = fr.way;
                auto w8 = static_cast<std::uint8_t>(fr.way);
                RefOrders::promote(ref.mru, w8);
                RefOrders::promote(ref.fifo, w8);
            }
        } else if (roll < 0.75) {
            // invalidate (possibly absent): demotes in BOTH orders
            cache.invalidate(blockOf(b));
            if (way_of[b] >= 0) {
                auto w8 = static_cast<std::uint8_t>(way_of[b]);
                RefOrders::demote(ref.mru, w8);
                RefOrders::demote(ref.fifo, w8);
                way_of[b] = -1;
            }
        } else if (roll < 0.80) {
            cache.flush();
            ref = RefOrders(a, 0);
            std::fill(way_of.begin(), way_of.end(), -1);
        } else {
            // pure lookup must not disturb either order
            (void)cache.findWay(blockOf(b));
        }

        ASSERT_EQ(cache.mruOrder(0), ref.mru)
            << "assoc " << a << " step " << step;
        ASSERT_EQ(cache.fifoOrder(0), ref.fifo)
            << "assoc " << a << " step " << step;
    }
}

class RecencyEquivalence
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RecencyEquivalence, MatchesReferenceVectors)
{
    runEquivalence(GetParam(), 0xc0ffee + GetParam());
}

// 1, 2 and 4 leave padding above the last slot of a set's one
// word; 8 fills the word exactly; 16, 32 and 64 carry slots across
// 2, 4 and 8 words, 64 with every bit of the set's mask word in use.
// (CacheGeometry only admits power-of-two associativities.)
INSTANTIATE_TEST_SUITE_P(Assoc, RecencyEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u,
                                           64u));

TEST(Recency, ColdStartRotationVariesBySet)
{
    // The initial orders are a per-set rotation (not identical
    // lists), so cold misses spread across ways — the stored
    // orders must reproduce exactly that rotation.
    WriteBackCache cache(CacheGeometry(4096, 16, 4));
    const unsigned a = 4;
    for (std::uint32_t set : {0u, 1u, 5u, cache.geom().sets() - 1}) {
        std::vector<std::uint8_t> want;
        for (unsigned i = 0; i < a; ++i)
            want.push_back(static_cast<std::uint8_t>((i + set) % a));
        EXPECT_EQ(cache.mruOrder(set), want) << "set " << set;
        EXPECT_EQ(cache.fifoOrder(set), want) << "set " << set;
    }
}

TEST(Recency, SnapshotMatchesPerLineReads)
{
    // What the observer fan-out reads per access: the block plane,
    // the validity word and the recency order, all in place. 16
    // ways span two order words, 32 four.
    for (unsigned a : {16u, 32u}) {
        WriteBackCache cache(CacheGeometry(4096, 16, a));
        const std::uint32_t sets = cache.geom().sets();
        std::vector<RefOrders> ref;
        for (std::uint32_t set = 0; set < sets; ++set)
            ref.emplace_back(a, set);
        Pcg32 rng(11 + a);
        for (int i = 0; i < 2000; ++i) {
            BlockAddr b = rng.below(2 * sets * a); // twice capacity
            const std::uint32_t set = cache.geom().setOf(b);
            int way = cache.findWay(b);
            if (way < 0)
                way = cache.fill(b, rng.chance(0.3)).way;
            else
                cache.touch(set, way);
            RefOrders::promote(ref[set].mru,
                               static_cast<std::uint8_t>(way));
        }
        for (std::uint32_t set = 0; set < sets; ++set) {
            const BlockAddr *blocks = cache.setBlocks(set);
            const std::uint64_t valid = cache.validMask(set);
            const std::uint8_t *order = cache.setOrder(set);
            EXPECT_EQ(0u, valid >> a);
            for (unsigned w = 0; w < a; ++w) {
                Line l = cache.line(set, static_cast<int>(w));
                EXPECT_EQ((valid >> w) & 1, l.valid ? 1u : 0u);
                EXPECT_EQ(blocks[w], l.block);
            }
            EXPECT_TRUE(
                std::equal(ref[set].mru.begin(), ref[set].mru.end(), order))
                << "a=" << a << " set " << set;
        }
    }
}

TEST(Recency, SetOrderIsTheCachesOwnPlane)
{
    // setOrder() points into the cache's MRU order: the pointer does
    // not move when its set changes, its a bytes are mruOrder() after
    // every operation, and no padding slot (a < 8) reaches a copy.
    for (unsigned a : {1u, 2u, 4u, 8u, 16u, 64u}) {
        WriteBackCache cache(CacheGeometry(64 * a, 16, a));
        const std::uint32_t sets = cache.geom().sets();
        Pcg32 rng(29 + a);
        for (int step = 0; step < 3000; ++step) {
            const BlockAddr b = rng.below(2 * sets * a);
            const std::uint32_t set = cache.geom().setOf(b);
            const std::uint8_t *before = cache.setOrder(set);
            const double roll = rng.uniform();
            const int way = cache.findWay(b);
            if (roll < 0.6) {
                if (way >= 0)
                    cache.touch(set, way);
                else
                    cache.fill(b, false);
            } else if (roll < 0.95) {
                cache.invalidate(b);
            } else {
                cache.flush();
            }
            ASSERT_EQ(cache.setOrder(set), before)
                << "a=" << a << " step " << step;
            const std::vector<std::uint8_t> mru = cache.mruOrder(set);
            ASSERT_TRUE(std::equal(mru.begin(), mru.end(), before))
                << "a=" << a << " step " << step;
            for (const std::vector<std::uint8_t> &order :
                 {mru, cache.fifoOrder(set)}) {
                std::vector<std::uint8_t> sorted = order;
                std::sort(sorted.begin(), sorted.end());
                for (unsigned i = 0; i < a; ++i)
                    ASSERT_EQ(sorted[i], i)
                        << "a=" << a << " step " << step;
            }
        }
    }
}

} // namespace
