#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace_stats.h"
#include "util/logging.h"

namespace assoc {
namespace trace {
namespace {

TEST(TraceStats, CountsMix)
{
    VectorTraceSource src({{0x00, RefType::Read, 1},
                           {0x20, RefType::Write, 1},
                           {0x40, RefType::Ifetch, 2},
                           {0x60, RefType::Read, 2},
                           MemRef::flush()});
    TraceStats s = collectStats(src, 32);
    EXPECT_EQ(s.refs, 4u);
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.ifetches, 1u);
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_DOUBLE_EQ(s.readFraction(), 0.5);
    EXPECT_DOUBLE_EQ(s.writeFraction(), 0.25);
    EXPECT_DOUBLE_EQ(s.ifetchFraction(), 0.25);
}

TEST(TraceStats, FootprintAtBlockGranularity)
{
    // Three references inside one 32-byte block, one outside.
    VectorTraceSource src({{0x00, RefType::Read, 0},
                           {0x04, RefType::Read, 0},
                           {0x1f, RefType::Write, 0},
                           {0x20, RefType::Read, 0}});
    TraceStats s = collectStats(src, 32);
    EXPECT_EQ(s.footprint_blocks, 2u);
    EXPECT_EQ(s.footprintBytes(), 64u);
}

TEST(TraceStats, PerPidBreakdown)
{
    VectorTraceSource src({{0x00, RefType::Read, 0},
                           {0x20, RefType::Read, 3},
                           {0x40, RefType::Read, 3}});
    TraceStats s = collectStats(src);
    EXPECT_EQ(s.per_pid.at(0), 1u);
    EXPECT_EQ(s.per_pid.at(3), 2u);
    EXPECT_EQ(s.per_pid.count(1), 0u);
}

TEST(TraceStats, EmptyTraceIsAllZero)
{
    VectorTraceSource src;
    TraceStats s = collectStats(src);
    EXPECT_EQ(s.refs, 0u);
    EXPECT_DOUBLE_EQ(s.readFraction(), 0.0);
    EXPECT_EQ(s.footprint_blocks, 0u);
}

TEST(TraceStats, NonPow2BlockIsFatal)
{
    VectorTraceSource src;
    EXPECT_THROW(collectStats(src, 48), FatalError);
}

TEST(SegmentStats, SplitsAtFlushMarkers)
{
    VectorTraceSource src({{0x00, RefType::Read, 0},
                           {0x20, RefType::Write, 0},
                           MemRef::flush(),
                           {0x40, RefType::Ifetch, 1},
                           MemRef::flush(),
                           {0x60, RefType::Read, 1}});
    std::vector<TraceStats> segs;
    collectStats(src, 32, &segs);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0].refs, 2u);
    EXPECT_EQ(segs[0].flushes, 1u);
    EXPECT_EQ(segs[1].refs, 1u);
    EXPECT_EQ(segs[1].ifetches, 1u);
    EXPECT_EQ(segs[2].refs, 1u);
    EXPECT_EQ(segs[2].flushes, 0u);
}

TEST(SegmentStats, FootprintIsPerSegment)
{
    VectorTraceSource src({{0x00, RefType::Read, 0},
                           {0x20, RefType::Read, 0},
                           MemRef::flush(),
                           {0x00, RefType::Read, 0}});
    std::vector<TraceStats> segs;
    collectStats(src, 32, &segs);
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_EQ(segs[0].footprint_blocks, 2u);
    EXPECT_EQ(segs[1].footprint_blocks, 1u);
}

TEST(SegmentStats, NoFlushGivesOneSegment)
{
    VectorTraceSource src({{0x00, RefType::Read, 0}});
    std::vector<TraceStats> segs;
    collectStats(src, 32, &segs);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].refs, 1u);
}

TEST(SegmentStats, EmptyTraceGivesOneEmptySegment)
{
    VectorTraceSource src;
    std::vector<TraceStats> segs;
    collectStats(src, 32, &segs);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].refs, 0u);
}

TEST(SegmentStats, TrailingFlushDoesNotCreateEmptySegment)
{
    VectorTraceSource src({{0x00, RefType::Read, 0},
                           MemRef::flush()});
    std::vector<TraceStats> segs;
    collectStats(src, 32, &segs);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].refs, 1u);
    EXPECT_EQ(segs[0].flushes, 1u);
}

TEST(SegmentStats, SegmentTotalsMatchWholeTraceStats)
{
    VectorTraceSource src({{0x00, RefType::Read, 1},
                           {0x40, RefType::Write, 2},
                           MemRef::flush(),
                           {0x80, RefType::Ifetch, 1},
                           {0xC0, RefType::Read, 3}});
    std::vector<TraceStats> segs;
    TraceStats whole = collectStats(src, 32, &segs);
    std::uint64_t refs = 0, reads = 0, writes = 0, ifetches = 0;
    for (const auto &s : segs) {
        refs += s.refs;
        reads += s.reads;
        writes += s.writes;
        ifetches += s.ifetches;
    }
    EXPECT_EQ(refs, whole.refs);
    EXPECT_EQ(reads, whole.reads);
    EXPECT_EQ(writes, whole.writes);
    EXPECT_EQ(ifetches, whole.ifetches);
}

TEST(TraceStats, PrintMentionsKeyNumbers)
{
    VectorTraceSource src({{0x00, RefType::Read, 1}});
    TraceStats s = collectStats(src);
    std::ostringstream oss;
    s.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("references"), std::string::npos);
    EXPECT_NE(out.find("footprint"), std::string::npos);
    EXPECT_NE(out.find("pid 1"), std::string::npos);
}

} // namespace
} // namespace trace
} // namespace assoc
