#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/atum_like.h"

namespace assoc {
namespace trace {
namespace {

AtumLikeConfig
smallConfig()
{
    AtumLikeConfig cfg;
    cfg.segments = 3;
    cfg.refs_per_segment = 5000;
    cfg.processes = 2;
    return cfg;
}

TEST(AtumLike, EmitsExactlyTotalRefs)
{
    AtumLikeGenerator gen(smallConfig());
    std::uint64_t n = 0;
    MemRef r;
    while (gen.next(r))
        ++n;
    EXPECT_EQ(n, gen.totalRefs());
    // 3 segments x 5000 refs + 2 flush markers.
    EXPECT_EQ(gen.totalRefs(), 3u * 5000u + 2u);
}

TEST(AtumLike, FlushMarkersSeparateSegments)
{
    AtumLikeGenerator gen(smallConfig());
    MemRef r;
    std::vector<std::uint64_t> flush_positions;
    std::uint64_t pos = 0;
    while (gen.next(r)) {
        if (r.isFlush())
            flush_positions.push_back(pos);
        ++pos;
    }
    ASSERT_EQ(flush_positions.size(), 2u);
    EXPECT_EQ(flush_positions[0], 5000u);
    EXPECT_EQ(flush_positions[1], 10001u);
}

TEST(AtumLike, NoFlushWhenDisabled)
{
    AtumLikeConfig cfg = smallConfig();
    cfg.flush_between_segments = false;
    AtumLikeGenerator gen(cfg);
    MemRef r;
    std::uint64_t n = 0;
    while (gen.next(r)) {
        EXPECT_FALSE(r.isFlush());
        ++n;
    }
    EXPECT_EQ(n, 3u * 5000u);
}

TEST(AtumLike, ResetReplaysBitIdentically)
{
    AtumLikeGenerator gen(smallConfig());
    std::vector<MemRef> first;
    MemRef r;
    while (gen.next(r))
        first.push_back(r);
    gen.reset();
    std::size_t i = 0;
    while (gen.next(r)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(r, first[i]) << "diverged at ref " << i;
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(AtumLike, TwoInstancesSameSeedAgree)
{
    AtumLikeGenerator a(smallConfig()), b(smallConfig());
    MemRef ra, rb;
    while (true) {
        bool ha = a.next(ra), hb = b.next(rb);
        ASSERT_EQ(ha, hb);
        if (!ha)
            break;
        ASSERT_EQ(ra, rb);
    }
}

TEST(AtumLike, DifferentSeedsProduceDifferentTraces)
{
    AtumLikeConfig c1 = smallConfig(), c2 = smallConfig();
    c2.seed = c1.seed + 1;
    AtumLikeGenerator a(c1), b(c2);
    MemRef ra, rb;
    int same = 0, n = 0;
    while (a.next(ra) && b.next(rb)) {
        same += ra == rb;
        ++n;
    }
    EXPECT_LT(same, n / 2);
}

TEST(AtumLike, MultipleProcessesAppear)
{
    AtumLikeGenerator gen(smallConfig());
    std::vector<std::uint64_t> pid_count(8, 0);
    MemRef r;
    while (gen.next(r)) {
        if (!r.isFlush())
            ++pid_count.at(r.pid);
    }
    // OS (pid 0) and both user processes (1, 2) all ran.
    EXPECT_GT(pid_count[0], 0u);
    EXPECT_GT(pid_count[1], 0u);
    EXPECT_GT(pid_count[2], 0u);
    EXPECT_EQ(pid_count[3], 0u);
}

TEST(AtumLike, OsFractionRoughlyHonored)
{
    AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 100000;
    cfg.processes = 4;
    AtumLikeGenerator gen(cfg);
    std::uint64_t os = 0, total = 0;
    MemRef r;
    while (gen.next(r)) {
        if (r.isFlush())
            continue;
        ++total;
        os += r.pid == 0;
    }
    double frac = static_cast<double>(os) / total;
    // OS bursts are picked with probability 0.20 but are shorter
    // (1500 vs 6000 mean refs): expected share ~ 0.20*1500 /
    // (0.20*1500 + 0.80*6000) ~ 0.06. Loose band.
    EXPECT_GT(frac, 0.01);
    EXPECT_LT(frac, 0.30);
}

TEST(AtumLike, ProcessAddressSpacesAreDisjoint)
{
    AtumLikeGenerator gen(smallConfig());
    MemRef r;
    while (gen.next(r)) {
        if (r.isFlush())
            continue;
        EXPECT_EQ(r.addr >> 26, static_cast<Addr>(r.pid + 1));
    }
}

TEST(AtumLike, SegmentsDiffer)
{
    // The 23 ATUM traces are different workloads; segments must not
    // be clones of each other.
    AtumLikeConfig cfg = smallConfig();
    cfg.segments = 2;
    AtumLikeGenerator gen(cfg);
    std::vector<MemRef> seg1, seg2;
    MemRef r;
    bool second = false;
    while (gen.next(r)) {
        if (r.isFlush()) {
            second = true;
            continue;
        }
        (second ? seg2 : seg1).push_back(r);
    }
    ASSERT_EQ(seg1.size(), seg2.size());
    int same = 0;
    for (std::size_t i = 0; i < seg1.size(); ++i)
        same += seg1[i] == seg2[i];
    EXPECT_LT(same, static_cast<int>(seg1.size()) / 2);
}

TEST(AtumLike, SegmentAloneEqualsItsSliceOfTheStream)
{
    const AtumLikeConfig cfg = smallConfig();
    AtumLikeGenerator serial(cfg);
    const std::vector<MemRef> stream =
        materialize(serial, serial.totalRefs());
    const std::size_t seg_refs = cfg.refs_per_segment;
    const std::size_t stride = seg_refs + 1; // and its flush marker
    for (unsigned k = 0; k < cfg.segments; ++k) {
        AtumLikeGenerator gen(cfg);
        std::vector<MemRef> seg(seg_refs);
        gen.emitSegment(k, seg.data());
        const auto begin = stream.begin() + k * stride;
        EXPECT_TRUE(std::equal(seg.begin(), seg.end(), begin))
            << "segment " << k;
        // next() goes on from the end of segment k: the flush
        // marker, then the later segments.
        std::vector<MemRef> rest;
        MemRef r;
        while (gen.next(r))
            rest.push_back(r);
        EXPECT_TRUE(std::equal(rest.begin(), rest.end(),
                               begin + seg_refs, stream.end()))
            << "after segment " << k;
    }
}

TEST(AtumLike, SegmentAloneKeepsTheWrappingSeedProduct)
{
    // A segment's seed adds the 32-bit product 0x9e37u * (k + 1),
    // which wraps from k = 106040 on; segment k alone must seed the
    // way the stream does on both sides of the wrap.
    const unsigned first = 106037; // three segments before the wrap
    AtumLikeConfig cfg;
    cfg.segments = first + 6;
    cfg.refs_per_segment = 1;
    cfg.flush_between_segments = false;
    cfg.processes = 1;
    AtumLikeGenerator serial(cfg);
    std::vector<MemRef> tail;
    MemRef r;
    for (std::uint64_t i = 0; serial.next(r); ++i)
        if (i >= first)
            tail.push_back(r);
    ASSERT_EQ(tail.size(), 6u);
    for (unsigned k = first; k < cfg.segments; ++k) {
        AtumLikeGenerator gen(cfg);
        MemRef alone;
        gen.emitSegment(k, &alone);
        EXPECT_EQ(alone, tail[k - first]) << "segment " << k;
    }
}

TEST(AtumLike, RejectsBadConfig)
{
    AtumLikeConfig cfg;
    cfg.segments = 0;
    EXPECT_THROW(AtumLikeGenerator{cfg}, FatalError);
    cfg = AtumLikeConfig{};
    cfg.refs_per_segment = 0;
    EXPECT_THROW(AtumLikeGenerator{cfg}, FatalError);
    cfg = AtumLikeConfig{};
    cfg.processes = 61;
    EXPECT_THROW(AtumLikeGenerator{cfg}, FatalError);
}

TEST(AtumLike, DefaultConfigMatchesPaperScale)
{
    AtumLikeConfig cfg;
    EXPECT_EQ(cfg.segments, 23u);
    EXPECT_EQ(cfg.refs_per_segment, 350000u);
    AtumLikeGenerator gen(cfg);
    // Over 8 million references, as the paper reports.
    EXPECT_GT(gen.totalRefs(), 8000000u);
}

} // namespace
} // namespace trace
} // namespace assoc
