#include <gtest/gtest.h>

#include "sim/config_parse.h"
#include "util/logging.h"

namespace assoc {
namespace sim {
namespace {

TEST(ParseSize, SuffixesAndPlainBytes)
{
    EXPECT_EQ(parseSize("4096"), 4096u);
    EXPECT_EQ(parseSize("16K"), 16384u);
    EXPECT_EQ(parseSize("16k"), 16384u);
    EXPECT_EQ(parseSize("1M"), 1048576u);
    EXPECT_EQ(parseSize("2m"), 2097152u);
}

TEST(ParseSize, RejectsJunk)
{
    EXPECT_THROW(parseSize(""), FatalError);
    EXPECT_THROW(parseSize("K"), FatalError);
    EXPECT_THROW(parseSize("12Q"), FatalError);
    EXPECT_THROW(parseSize("1.5K"), FatalError);
    EXPECT_THROW(parseSize("999999M"), FatalError);
}

TEST(ParseCacheSpec, PaperNotation)
{
    mem::CacheGeometry g = parseCacheSpec("256K-32:4");
    EXPECT_EQ(g.sizeBytes(), 262144u);
    EXPECT_EQ(g.blockBytes(), 32u);
    EXPECT_EQ(g.assoc(), 4u);

    mem::CacheGeometry dm = parseCacheSpec("16K-16");
    EXPECT_EQ(dm.assoc(), 1u);
    EXPECT_EQ(dm.name(), "16K-16");
}

TEST(ParseCacheSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseCacheSpec("256K"), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-32:4:2"), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-32-4"), FatalError);
    EXPECT_THROW(parseCacheSpec("abc-32"), FatalError);
    // Geometry validation still applies (non-pow2 associativity).
    EXPECT_THROW(parseCacheSpec("256K-32:3"), FatalError);
}

TEST(ParseCacheSpec, TruncatedAndEmptyFields)
{
    // Every malformed shape must land in fatal()'s documented
    // FatalError, never in UB or a bogus geometry.
    EXPECT_THROW(parseCacheSpec(""), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-"), FatalError);
    EXPECT_THROW(parseCacheSpec("-32"), FatalError);
    EXPECT_THROW(parseCacheSpec("K-32:4"), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-32:"), FatalError);
    EXPECT_THROW(parseCacheSpec(":4"), FatalError);
    EXPECT_THROW(parseCacheSpec("-"), FatalError);
}

TEST(ParseCacheSpec, ZeroAndOverflowSizes)
{
    EXPECT_THROW(parseCacheSpec("0-32:4"), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-0:4"), FatalError);
    EXPECT_THROW(parseCacheSpec("256K-32:0"), FatalError);
    // 2^32 bytes and beyond cannot be a 32-bit geometry.
    EXPECT_THROW(parseCacheSpec("4294967296-32:4"), FatalError);
    EXPECT_THROW(parseCacheSpec("4194304K-32:4"), FatalError);
    EXPECT_THROW(parseCacheSpec("4096M-32:4"), FatalError);
    // Unknown unit suffix.
    EXPECT_THROW(parseCacheSpec("16G-32:4"), FatalError);
    // Blocks below the 4-byte minimum.
    EXPECT_THROW(parseCacheSpec("256K-2:4"), FatalError);
    // More ways than frames.
    EXPECT_THROW(parseCacheSpec("64-16:8"), FatalError);
}

TEST(ParseSchemeList, BasicNames)
{
    auto schemes =
        parseSchemeList("traditional,naive,mru,partial", 4, 16);
    ASSERT_EQ(schemes.size(), 4u);
    EXPECT_EQ(schemes[0].kind, core::SchemeKind::Traditional);
    EXPECT_EQ(schemes[1].kind, core::SchemeKind::Naive);
    EXPECT_EQ(schemes[2].kind, core::SchemeKind::Mru);
    EXPECT_EQ(schemes[3].kind, core::SchemeKind::Partial);
    // "partial" follows the paper rule at a = 4, t = 16.
    EXPECT_EQ(schemes[3].partial_k, 4u);
    EXPECT_EQ(schemes[3].partial_subsets, 1u);
}

TEST(ParseSchemeList, MruListLength)
{
    auto schemes = parseSchemeList("mru:2", 8, 16);
    ASSERT_EQ(schemes.size(), 1u);
    EXPECT_EQ(schemes[0].mru_list_len, 2u);
}

TEST(ParseSchemeList, PartialOptions)
{
    auto schemes =
        parseSchemeList("partial:k=2;s=4;tr=improved", 8, 16);
    ASSERT_EQ(schemes.size(), 1u);
    EXPECT_EQ(schemes[0].partial_k, 2u);
    EXPECT_EQ(schemes[0].partial_subsets, 4u);
    EXPECT_EQ(schemes[0].transform,
              core::TransformKind::Improved);
}

TEST(ParseSchemeList, ExtraStrategies)
{
    auto schemes =
        parseSchemeList("swapmru,widenaive:2,widemru:4", 8, 16);
    ASSERT_EQ(schemes.size(), 3u);
    EXPECT_EQ(schemes[0].kind, core::SchemeKind::SwapMru);
    EXPECT_EQ(schemes[1].kind, core::SchemeKind::WideNaive);
    EXPECT_EQ(schemes[1].width, 2u);
    EXPECT_EQ(schemes[2].kind, core::SchemeKind::WideMru);
    EXPECT_EQ(schemes[2].width, 4u);
    // Each builds the strategy it names, at its width.
    EXPECT_EQ(schemes[0].makeMeter()->name(), "SwapMRU");
    EXPECT_EQ(schemes[1].makeMeter()->name(), "WideNaive-2");
    EXPECT_EQ(schemes[2].makeMeter()->name(), "WideMRU-4");
}

TEST(ParseSchemeList, WayMemoDefaultsAndOptions)
{
    // Bare "waymemo": per-block, 64 tagged entries, traditional
    // underlying (the header's documented defaults).
    auto schemes = parseSchemeList("waymemo,waypredict", 4, 16);
    ASSERT_EQ(schemes.size(), 2u);
    EXPECT_EQ(schemes[0].kind, core::SchemeKind::WayMemo);
    EXPECT_EQ(schemes[0].memo_entries, 64u);
    EXPECT_EQ(schemes[0].memo_region_bits, 0u);
    EXPECT_TRUE(schemes[0].memo_tagged);
    EXPECT_EQ(schemes[0].memo_underlying,
              core::SchemeKind::Traditional);
    EXPECT_EQ(schemes[1].kind, core::SchemeKind::WayPredict);

    auto full = parseSchemeList("waymemo:e=128;r=2;tag=0;u=mru",
                                4, 16);
    EXPECT_EQ(full[0].memo_entries, 128u);
    EXPECT_EQ(full[0].memo_region_bits, 2u);
    EXPECT_FALSE(full[0].memo_tagged);
    EXPECT_EQ(full[0].memo_underlying, core::SchemeKind::Mru);

    // A partial underlying pulls the paper's (k, s) parameters for
    // the given associativity and tag width.
    auto part = parseSchemeList("waymemo:u=partial", 4, 16);
    EXPECT_EQ(part[0].memo_underlying,
              core::SchemeKind::Partial);
    EXPECT_EQ(part[0].partial_k, 4u);
    EXPECT_EQ(part[0].partial_subsets, 1u);
}

TEST(ParseSchemeList, WayMemoRejections)
{
    EXPECT_THROW(parseSchemeList("waymemo:q=1", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("waymemo:tag=2", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("waymemo:e", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("waymemo:e=64:x", 4, 16), FatalError);
    // Memo-over-memo nesting is rejected at parse time.
    EXPECT_THROW(parseSchemeList("waymemo:u=waymemo", 4, 16),
                 FatalError);
    EXPECT_THROW(parseSchemeList("waymemo:u=waypredict", 4, 16),
                 FatalError);
}

TEST(ParseSchemeList, TagBitsPropagate)
{
    auto schemes = parseSchemeList("partial", 8, 32);
    EXPECT_EQ(schemes[0].tag_bits, 32u);
    // 32-bit tags need only one subset at 8-way (Figure 6).
    EXPECT_EQ(schemes[0].partial_subsets, 1u);
}

TEST(ParseSchemeList, Rejections)
{
    EXPECT_THROW(parseSchemeList("", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("bogus", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("widenaive", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("partial:q=1", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("partial:k", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("mru:x", 4, 16), FatalError);
    // A token holds only the fields its scheme takes.
    EXPECT_THROW(parseSchemeList("naive:junk", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("mru:2:3", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("partial:k=2:x", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("swapmru:junk", 4, 16), FatalError);
    EXPECT_THROW(parseSchemeList("widenaive:2:3", 4, 16), FatalError);
}

TEST(ParseReplPolicy, Names)
{
    EXPECT_EQ(parseReplPolicy("lru"), mem::ReplPolicy::Lru);
    EXPECT_EQ(parseReplPolicy("fifo"), mem::ReplPolicy::Fifo);
    EXPECT_EQ(parseReplPolicy("random"), mem::ReplPolicy::Random);
    EXPECT_THROW(parseReplPolicy("plru"), FatalError);
}

} // namespace
} // namespace sim
} // namespace assoc
