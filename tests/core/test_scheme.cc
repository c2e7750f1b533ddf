#include <gtest/gtest.h>

#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/scheme.h"
#include "util/logging.h"

namespace assoc {
namespace core {
namespace {

TEST(SchemeKindParsing, AcceptsKnownNames)
{
    EXPECT_EQ(schemeKindFromString("traditional"),
              SchemeKind::Traditional);
    EXPECT_EQ(schemeKindFromString("naive"), SchemeKind::Naive);
    EXPECT_EQ(schemeKindFromString("mru"), SchemeKind::Mru);
    EXPECT_EQ(schemeKindFromString("partial"), SchemeKind::Partial);
    EXPECT_THROW(schemeKindFromString("nope"), FatalError);
}

TEST(SchemeKindParsing, Names)
{
    EXPECT_STREQ(schemeKindName(SchemeKind::Traditional),
                 "Traditional");
    EXPECT_STREQ(schemeKindName(SchemeKind::Naive), "Naive");
    EXPECT_STREQ(schemeKindName(SchemeKind::Mru), "MRU");
    EXPECT_STREQ(schemeKindName(SchemeKind::Partial), "Partial");
    EXPECT_STREQ(schemeKindName(SchemeKind::SwapMru), "SwapMRU");
    EXPECT_STREQ(schemeKindName(SchemeKind::WideNaive), "WideNaive");
    EXPECT_STREQ(schemeKindName(SchemeKind::WideMru), "WideMRU");
}

TEST(SchemeSpec, MakesTheRightStrategyTypes)
{
    SchemeSpec spec;
    spec.kind = SchemeKind::Traditional;
    EXPECT_NE(dynamic_cast<TraditionalLookup *>(
                  spec.makeStrategy().get()),
              nullptr);
    spec.kind = SchemeKind::Naive;
    EXPECT_NE(dynamic_cast<NaiveLookup *>(spec.makeStrategy().get()),
              nullptr);
    spec.kind = SchemeKind::Mru;
    EXPECT_NE(dynamic_cast<MruLookup *>(spec.makeStrategy().get()),
              nullptr);
    spec.kind = SchemeKind::Partial;
    EXPECT_NE(dynamic_cast<PartialLookup *>(spec.makeStrategy().get()),
              nullptr);
}

TEST(SchemeSpec, MruListLengthPropagates)
{
    SchemeSpec spec;
    spec.kind = SchemeKind::Mru;
    spec.mru_list_len = 3;
    auto strat = spec.makeStrategy();
    auto *mru = dynamic_cast<MruLookup *>(strat.get());
    ASSERT_NE(mru, nullptr);
    EXPECT_EQ(mru->listLen(), 3u);
}

TEST(SchemeSpec, PartialParametersPropagate)
{
    SchemeSpec spec;
    spec.kind = SchemeKind::Partial;
    spec.partial_k = 2;
    spec.partial_subsets = 2;
    spec.transform = TransformKind::Improved;
    spec.tag_bits = 32;
    auto strat = spec.makeStrategy();
    auto *pl = dynamic_cast<PartialLookup *>(strat.get());
    ASSERT_NE(pl, nullptr);
    EXPECT_EQ(pl->config().field_bits, 2u);
    EXPECT_EQ(pl->config().subsets, 2u);
    EXPECT_EQ(pl->config().transform, TransformKind::Improved);
    EXPECT_EQ(pl->config().tag_bits, 32u);
}

TEST(SchemeSpec, PaperPartialChoosesPaperSubsetCounts)
{
    // Figure 3's configuration: k = 4, 16-bit tags; 1, 2, 4 subsets
    // for 4, 8, 16-way caches.
    EXPECT_EQ(SchemeSpec::paperPartial(4).partial_subsets, 1u);
    EXPECT_EQ(SchemeSpec::paperPartial(8).partial_subsets, 2u);
    EXPECT_EQ(SchemeSpec::paperPartial(16).partial_subsets, 4u);
    // 2-way: k = 4 fits in one subset.
    EXPECT_EQ(SchemeSpec::paperPartial(2).partial_subsets, 1u);
    // 32-bit tags halve the subset counts.
    EXPECT_EQ(SchemeSpec::paperPartial(8, 32).partial_subsets, 1u);
    EXPECT_EQ(SchemeSpec::paperPartial(16, 32).partial_subsets, 2u);
}

TEST(SchemeSpec, PaperPartialSpendsTheWholeTagWidth)
{
    // 16-bit tags: k = 4 everywhere (Figure 3's configuration).
    EXPECT_EQ(SchemeSpec::paperPartial(4).partial_k, 4u);
    EXPECT_EQ(SchemeSpec::paperPartial(8).partial_k, 4u);
    EXPECT_EQ(SchemeSpec::paperPartial(16).partial_k, 4u);
    // 32-bit tags widen the 4-way compare to 8 bits (Figure 6)
    // and keep k = 4 with fewer subsets at 8/16-way.
    EXPECT_EQ(SchemeSpec::paperPartial(4, 32).partial_k, 8u);
    EXPECT_EQ(SchemeSpec::paperPartial(8, 32).partial_k, 4u);
    EXPECT_EQ(SchemeSpec::paperPartial(16, 32).partial_k, 4u);
    // 2-way with 16-bit tags gets one 8-bit compare per way.
    EXPECT_EQ(SchemeSpec::paperPartial(2).partial_k, 8u);
}

TEST(SchemeSpec, PaperPartialInfeasibleIsFatal)
{
    // k wider than the whole tag can never fit.
    EXPECT_THROW(SchemeSpec::paperPartial(4, 2, 4), FatalError);
}

TEST(SchemeSpec, MeterConfigPropagates)
{
    SchemeSpec spec;
    spec.kind = SchemeKind::Naive;
    spec.tag_bits = 32;
    auto with_opt = spec.makeMeter(true);
    auto without = spec.makeMeter(false);
    EXPECT_TRUE(with_opt->config().wb_optimization);
    EXPECT_FALSE(without->config().wb_optimization);
    EXPECT_EQ(with_opt->config().tag_bits, 32u);
}

} // namespace
} // namespace core
} // namespace assoc
