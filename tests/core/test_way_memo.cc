/**
 * @file
 * Way memoization and way prediction (way_memo.h): memo hits skip
 * every tag probe, memo misses price the underlying scheme plus the
 * table traffic, and neither strategy may ever change what hits —
 * only what it costs. The stale-entry and invalidation paths that
 * mirror hardware memo-table clearing are pinned here, as is the
 * WayPredict probe discipline (one probe on a correct prediction,
 * two on anything else).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <vector>

#include "core/lookup.h"
#include "core/mru_lookup.h"
#include "core/probe_meter.h"
#include "core/way_memo.h"
#include "util/logging.h"
#include "util/rng.h"

namespace assoc {
namespace core {
namespace {

/** A fully valid set with MRU order 0,1,2,... by default. */
struct TestSet
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> order;

    TestSet(std::initializer_list<std::uint32_t> t)
        : tags(t), valid(t.size(), 1), order(t.size())
    {
        std::iota(order.begin(), order.end(),
                  static_cast<std::uint8_t>(0));
    }

    LookupInput
    input(std::uint32_t incoming, std::uint32_t block) const
    {
        // The 0/1 flags as the cache keeps them: one word.
        std::uint64_t word = 0;
        for (std::size_t w = 0; w < valid.size(); ++w)
            word |= std::uint64_t{valid[w] != 0} << w;
        return LookupInput(static_cast<unsigned>(tags.size()),
                           tags.data(), word, order.data(),
                           incoming, block, block & 7);
    }
};

/** Lookups tallied into a ProbeStats the way ProbeMeter meters
 *  them: the memo hits and mispredictions these tests count. */
struct Metered
{
    ProbeStats stats;

    LookupResult
    operator()(const LookupResult &res)
    {
        stats.events += res.events;
        ++stats.metered;
        if (res.memo_hit)
            ++stats.memo_hits;
        return res;
    }
};

WayMemoLookup
makeMemo(WayMemoConfig cfg = WayMemoConfig())
{
    return WayMemoLookup(std::make_unique<TraditionalLookup>(), cfg);
}

TEST(WayMemo, ColdLookupMissesThenMemoizes)
{
    WayMemoLookup wm = makeMemo();
    Metered meter;
    TestSet s{1, 2, 3, 4};

    // Cold table: the underlying Traditional lookup runs (1 probe,
    // a tag reads) plus the failed memo read and the repair write.
    LookupResult first = meter(wm.lookup(s.input(3, 0x30)));
    EXPECT_TRUE(first.hit);
    EXPECT_EQ(first.way, 2);
    EXPECT_FALSE(first.memo_hit);
    EXPECT_EQ(first.probes, 1u);
    EXPECT_EQ(first.events.tag_reads, 4u);
    EXPECT_EQ(first.events.memo_reads, 1u);
    EXPECT_EQ(first.events.memo_writes, 1u);

    // Warm entry: same block hits its memoized way with zero probes
    // and nothing but the memo read.
    LookupResult second = meter(wm.lookup(s.input(3, 0x30)));
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.way, 2);
    EXPECT_TRUE(second.memo_hit);
    EXPECT_EQ(second.probes, 0u);
    EXPECT_EQ(second.events.tag_reads, 0u);
    EXPECT_EQ(second.events.tag_compares, 0u);
    EXPECT_EQ(second.events.memo_reads, 1u);
    EXPECT_EQ(second.events.memo_writes, 0u);

    EXPECT_EQ(meter.stats.metered, 2u);
    EXPECT_EQ(meter.stats.memo_hits, 1u);
}

TEST(WayMemo, StaleEntryIsDetectedAndRepaired)
{
    WayMemoLookup wm = makeMemo();
    TestSet s{1, 2, 3, 4};
    ASSERT_TRUE(wm.lookup(s.input(3, 0x30)).memo_hit == false);

    // The block "moves" to way 0 (as a refill after eviction would):
    // the entry still says way 2, so the memo misses — but the
    // outcome is the underlying scheme's, untouched.
    std::swap(s.tags[0], s.tags[2]);
    LookupResult moved = wm.lookup(s.input(3, 0x30));
    EXPECT_TRUE(moved.hit);
    EXPECT_EQ(moved.way, 0);
    EXPECT_FALSE(moved.memo_hit);
    EXPECT_EQ(moved.probes, 1u);

    // The miss repaired the entry: next access memo-hits at way 0.
    LookupResult repaired = wm.lookup(s.input(3, 0x30));
    EXPECT_TRUE(repaired.memo_hit);
    EXPECT_EQ(repaired.way, 0);
}

TEST(WayMemo, UnderlyingMissInvalidatesTheEntry)
{
    WayMemoLookup wm = makeMemo();
    Metered meter;
    TestSet s{1, 2, 3, 4};
    meter(wm.lookup(s.input(3, 0x30))); // memoize way 2

    // The block leaves the cache: a provable miss drops the entry,
    // exactly as hardware invalidation-on-eviction would.
    s.valid[2] = 0;
    LookupResult miss = meter(wm.lookup(s.input(3, 0x30)));
    EXPECT_FALSE(miss.hit);
    EXPECT_FALSE(miss.memo_hit);

    // Even though the block returns to the very way the old entry
    // named, the invalidated entry must not memo-hit.
    s.valid[2] = 1;
    LookupResult refill = meter(wm.lookup(s.input(3, 0x30)));
    EXPECT_TRUE(refill.hit);
    EXPECT_EQ(refill.way, 2);
    EXPECT_FALSE(refill.memo_hit);
    EXPECT_EQ(meter.stats.memo_hits, 0u);
}

TEST(WayMemo, TaggedEntriesMatchOnlyTheirRegion)
{
    WayMemoConfig cfg;
    cfg.entries = 4;
    WayMemoLookup tagged = makeMemo(cfg);
    cfg.tagged = false;
    WayMemoLookup untagged = makeMemo(cfg);
    TestSet s{1, 2, 3, 4};

    // Blocks 0x00 and 0x04 collide in a 4-entry table (idx 0) but
    // are different regions. Both resolve to way 2 here.
    tagged.lookup(s.input(3, 0x00));
    untagged.lookup(s.input(3, 0x00));

    // Tagged: the colliding region must not reuse the entry.
    EXPECT_FALSE(tagged.lookup(s.input(3, 0x04)).memo_hit);
    // Untagged: the alias is allowed to memo-hit, because the
    // underlying lookup agrees on the way — outcomes are safe, the
    // saved tag bits just widen what counts as a hit.
    EXPECT_TRUE(untagged.lookup(s.input(3, 0x04)).memo_hit);
}

TEST(WayMemo, RegionBitsShareOneEntryAcrossNeighbors)
{
    WayMemoConfig cfg;
    cfg.region_bits = 1; // blocks 2b and 2b+1 share one entry
    WayMemoLookup wm = makeMemo(cfg);
    TestSet s{1, 2, 3, 4};

    wm.lookup(s.input(3, 0x10));
    EXPECT_TRUE(wm.lookup(s.input(3, 0x11)).memo_hit);
    // The next region over is cold.
    EXPECT_FALSE(wm.lookup(s.input(3, 0x12)).memo_hit);
}

TEST(WayMemo, FlushClearsTableAndForwardsToUnderlying)
{
    WayMemoLookup wm = makeMemo();
    TestSet s{1, 2, 3, 4};
    wm.lookup(s.input(3, 0x30));
    ASSERT_TRUE(wm.lookup(s.input(3, 0x30)).memo_hit);

    wm.onFlush();
    EXPECT_FALSE(wm.lookup(s.input(3, 0x30)).memo_hit);
}

TEST(WayMemo, OutcomeIdenticalToUnderlyingUnderFuzz)
{
    // The load-bearing guarantee: across random sets, tags and
    // blocks, hit/miss and the hit way are bit-identical to the
    // underlying scheme; memoization only ever zeroes probes.
    WayMemoConfig cfg;
    cfg.entries = 8; // tiny table: aliasing and staleness galore
    WayMemoLookup wm(std::make_unique<MruLookup>(0), cfg);
    MruLookup bare(0);
    Metered meter;

    Pcg32 rng(0x3eed);
    for (int i = 0; i < 5000; ++i) {
        TestSet s{0, 0, 0, 0};
        for (unsigned w = 0; w < 4; ++w) {
            s.tags[w] = rng.below(8);
            s.valid[w] = rng.chance(0.8) ? 1 : 0;
        }
        std::stable_partition(s.order.begin(), s.order.end(),
                              [&s](std::uint8_t w) {
                                  return s.valid[w] != 0;
                              });
        LookupInput in = s.input(rng.below(8), rng.below(64));
        LookupResult want = bare.lookup(in);
        LookupResult got = meter(wm.lookup(in));
        ASSERT_EQ(got.hit, want.hit) << "case " << i;
        ASSERT_EQ(got.way, want.way) << "case " << i;
        if (got.memo_hit)
            ASSERT_EQ(got.probes, 0u) << "case " << i;
        else
            ASSERT_EQ(got.probes, want.probes) << "case " << i;
    }
    EXPECT_GT(meter.stats.memo_hits, 0u);
}

TEST(WayMemo, NameDescribesGeometryAndUnderlying)
{
    WayMemoConfig cfg;
    cfg.entries = 16;
    cfg.region_bits = 2;
    WayMemoLookup wm(std::make_unique<TraditionalLookup>(), cfg);
    EXPECT_EQ(wm.name(), "WayMemo(e=16,r=2,tagged)+Traditional");
    cfg.tagged = false;
    WayMemoLookup wu(std::make_unique<NaiveLookup>(), cfg);
    EXPECT_EQ(wu.name(), "WayMemo(e=16,r=2,untagged)+Naive");
}

TEST(WayMemo, RejectsBadGeometry)
{
    WayMemoConfig cfg;
    cfg.entries = 48; // not a power of two
    EXPECT_THROW(makeMemo(cfg), FatalError);
    cfg.entries = 64;
    cfg.region_bits = 32;
    EXPECT_THROW(makeMemo(cfg), FatalError);
}

TEST(WayPredict, CorrectPredictionCostsOneProbe)
{
    WayPredictLookup wp;
    Metered meter;
    TestSet s{1, 2, 3, 4};
    s.order = {2, 0, 1, 3}; // way 2 is MRU: the prediction

    LookupResult res = meter(wp.lookup(s.input(3, 0)));
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.way, 2);
    EXPECT_EQ(res.probes, 1u);
    EXPECT_EQ(res.events.tag_reads, 1u);
    EXPECT_EQ(res.events.tag_compares, 1u);
    // The prediction-register read is an energy event, not a probe.
    EXPECT_EQ(res.events.memo_reads, 1u);
    EXPECT_EQ(res.events.memo_writes, 0u);
    // One prediction, none repaired: no misprediction.
    EXPECT_EQ(meter.stats.metered, 1u);
    EXPECT_EQ(meter.stats.events.memo_writes, 0u);
}

TEST(WayPredict, MispredictionAddsOneWideProbe)
{
    WayPredictLookup wp;
    Metered meter;
    TestSet s{1, 2, 3, 4}; // MRU order 0,1,2,3: prediction = way 0

    LookupResult res = meter(wp.lookup(s.input(4, 0)));
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.way, 3);
    EXPECT_EQ(res.probes, 2u);
    // One predicted-way read plus the a-1 remaining ways at once.
    EXPECT_EQ(res.events.tag_reads, 4u);
    EXPECT_EQ(res.events.memo_writes, 1u);
    EXPECT_EQ(meter.stats.events.memo_writes, 1u);
}

TEST(WayPredict, MissCostsTwoProbesAndCountsAsMisprediction)
{
    WayPredictLookup wp;
    Metered meter;
    TestSet s{1, 2, 3, 4};
    LookupResult res = meter(wp.lookup(s.input(9, 0)));
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.probes, 2u);
    // One prediction, repaired after it missed.
    EXPECT_EQ(meter.stats.metered, 1u);
    EXPECT_EQ(meter.stats.events.memo_writes, 1u);
}

TEST(WayPredict, DirectMappedNeverExceedsOneProbe)
{
    WayPredictLookup wp;
    TestSet s{7};
    EXPECT_EQ(wp.lookup(s.input(7, 0)).probes, 1u);
    LookupResult miss = wp.lookup(s.input(3, 0));
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.probes, 1u); // no remaining ways to widen over
}

TEST(WayPredict, WideProbeResolvesToLowestMatchingWay)
{
    WayPredictLookup wp;
    TestSet s{9, 5, 5, 5}; // prediction (way 0) misses, 1..3 match
    LookupResult res = wp.lookup(s.input(5, 0));
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.way, 1); // the parallel priority encoder's pick
}

} // namespace
} // namespace core
} // namespace assoc
