#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/analytic.h"
#include "core/partial_lookup.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace assoc {
namespace core {
namespace {

struct SetFixture
{
    std::vector<std::uint32_t> tags;
    std::uint64_t valid; ///< every way valid unless a test clears one
    std::vector<std::uint8_t> mru;

    explicit SetFixture(std::vector<std::uint32_t> t)
        : tags(std::move(t)),
          valid(maskBits(static_cast<unsigned>(tags.size()))),
          mru(tags.size())
    {
        for (std::size_t i = 0; i < mru.size(); ++i)
            mru[i] = static_cast<std::uint8_t>(i);
    }

    LookupInput
    input(std::uint32_t incoming) const
    {
        return LookupInput(static_cast<unsigned>(tags.size()),
                           tags.data(), valid, mru.data(), incoming);
    }
};

PartialConfig
config(unsigned k = 4, unsigned s = 1,
       TransformKind tr = TransformKind::None, unsigned t = 16)
{
    PartialConfig cfg;
    cfg.tag_bits = t;
    cfg.field_bits = k;
    cfg.subsets = s;
    cfg.transform = tr;
    return cfg;
}

TEST(PartialLookup, HitWithNoFalseMatchesCostsTwoProbes)
{
    // Untransformed 4-way, k=4: way i's partial compare examines
    // field i. Choose tags whose compared fields all differ from
    // the incoming tag except the true match.
    // incoming 0x1234: fields (4,3,2,1) for ways (0,1,2,3).
    PartialLookup pl(config());
    SetFixture s({0x1234, 0x1204, 0x1034, 0x0234});
    // way1 field1=0 != 3; way2 field2=0 != 2; way3 field3=0 != 1.
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 0);
    EXPECT_EQ(r.probes, 2u); // step 1 + one full compare
}

TEST(PartialLookup, FalseMatchesCostExtraProbes)
{
    PartialLookup pl(config());
    // incoming 0x1234. way0 stored 0x5674: field0 = 4 matches but
    // full tag differs (false match). way1 holds the real block:
    // field1 of 0x1234 is 3; stored 0x1234 at way 1 has field1 = 3.
    SetFixture s({0x5674, 0x1234, 0x0000, 0x0000});
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 1);
    // step 1 + false full compare (way 0) + true full compare.
    EXPECT_EQ(r.probes, 3u);
}

TEST(PartialLookup, MissCostsStepOnePlusFalseMatches)
{
    PartialLookup pl(config());
    // incoming 0x1234, no stored tag matches fully; way2's field2
    // (=2) matches (0x0200 has field2 = 2).
    SetFixture s({0x0000, 0x0000, 0x0200, 0x0000});
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 2u); // 1 step-1 + 1 false match
}

TEST(PartialLookup, CleanMissCostsOnlyStepOne)
{
    PartialLookup pl(config());
    SetFixture s({0x0000, 0x0000, 0x0000, 0x0000});
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 1u);
}

TEST(PartialLookup, SubsetsSearchedInOrder)
{
    // 8-way, k=4, t=16 requires 2 subsets of 4 ways.
    PartialLookup pl(config(4, 2));
    // Hit in the second subset (way 5).
    SetFixture s({0, 0, 0, 0, 0, 0x1234, 0, 0});
    // Zero tags: fields all 0; incoming fields (4,3,2,1) nonzero,
    // so no false matches anywhere.
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 5);
    // subset 0 step-1 + subset 1 step-1 + full compare.
    EXPECT_EQ(r.probes, 3u);
}

TEST(PartialLookup, HitInFirstSubsetSkipsSecond)
{
    PartialLookup pl(config(4, 2));
    SetFixture s({0x1234, 0, 0, 0, 0, 0x4321, 0, 0});
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, 0);
    EXPECT_EQ(r.probes, 2u);
}

TEST(PartialLookup, MissProbesAllSubsets)
{
    PartialLookup pl(config(4, 2));
    SetFixture s({0, 0, 0, 0, 0, 0, 0, 0});
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 2u); // one step-1 probe per subset
}

TEST(PartialLookup, InvalidWaysAreFiltered)
{
    PartialLookup pl(config());
    SetFixture s({0x1234, 0, 0, 0});
    s.valid &= ~std::uint64_t{1};
    LookupResult r = pl.lookup(s.input(0x1234));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.probes, 1u);
}

TEST(PartialLookup, TransformedLookupStillFindsTheBlock)
{
    for (TransformKind tr :
         {TransformKind::None, TransformKind::XorLow,
          TransformKind::Improved, TransformKind::Swap}) {
        PartialLookup pl(config(4, 1, tr));
        Pcg32 rng(42);
        for (int i = 0; i < 500; ++i) {
            std::uint32_t target = rng.next() & 0xffff;
            SetFixture s({rng.next() & 0xffff, target,
                          rng.next() & 0xffff, rng.next() & 0xffff});
            LookupResult r = pl.lookup(s.input(target));
            ASSERT_TRUE(r.hit) << transformKindName(tr);
            // An earlier way could alias the full 16-bit tag only if
            // it equals the target; allow that rare case.
            if (s.tags[0] != target) {
                ASSERT_EQ(r.way, 1) << transformKindName(tr);
            }
        }
    }
}

TEST(PartialLookup, RejectsInfeasibleGeometry)
{
    // 8-way with k=4 and one subset needs 32 bits of 16-bit tags.
    PartialLookup pl(config(4, 1));
    SetFixture s({0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_THROW(pl.lookup(s.input(1)), FatalError);
}

TEST(PartialLookup, RejectsSubsetsNotDividingAssoc)
{
    PartialLookup pl(config(4, 3));
    SetFixture s({0, 0, 0, 0});
    EXPECT_THROW(pl.lookup(s.input(1)), FatalError);
}

TEST(PartialLookup, ZeroSubsetsIsFatalAtConstruction)
{
    EXPECT_THROW(PartialLookup(config(4, 0)), FatalError);
}

TEST(PartialLookup, NameDescribesConfiguration)
{
    EXPECT_EQ(PartialLookup(config(4, 2, TransformKind::XorLow)).name(),
              "Partial(k=4,s=2,xor)");
}

/**
 * Statistical property: with random uniform tags, measured probe
 * counts approach the Section 2 formulas.
 *
 * Tolerance: each test averages n = 20000 independent lookups (fresh
 * tags every trial), so the mean lies within kZ * sd / sqrt(n) of
 * its expectation except with probability 2 * (1 - Phi(kZ)) under
 * the normal approximation: 5.7e-7 per check at kZ = 5, the bound
 * ClosedForms.* uses. sd is the per-trial probe spread the run
 * observed. The formulas are exact expectations when every compared
 * field is uniform and independent of the incoming tag; conditioning
 * a miss on distinct full tags, and a hit on the first of any
 * duplicate tags, moves them by under 1e-3 probes here, far inside
 * the 0.01-0.07 bounds.
 */
class PartialStatistics
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/** Standard errors a checked mean may stray (see above). */
constexpr double kZ = 5.0;

/** Allowed |mean - formula| for the per-trial @p probes. */
double
bound(const MeanAccum &probes)
{
    return kZ * std::sqrt(probes.variance() /
                          static_cast<double>(probes.count()));
}

TEST_P(PartialStatistics, MissProbesMatchTheory)
{
    auto [a, s] = GetParam();
    unsigned k = analytic::partialWidth(a, 16, s);
    PartialConfig cfg = config(k, s);
    PartialLookup pl(cfg);

    Pcg32 rng(7);
    MeanAccum probes;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> tags(a);
        for (auto &t : tags)
            t = rng.next() & 0xffff;
        SetFixture set(tags);
        // Incoming tag differs from all stored tags: a miss.
        std::uint32_t incoming;
        bool dup;
        do {
            incoming = rng.next() & 0xffff;
            dup = false;
            for (auto t : tags)
                dup |= t == incoming;
        } while (dup);
        LookupResult r = pl.lookup(set.input(incoming));
        ASSERT_FALSE(r.hit);
        probes.record(r.probes);
    }
    EXPECT_NEAR(probes.mean(), analytic::partialMiss(a, k, s),
                bound(probes));
}

TEST_P(PartialStatistics, HitProbesMatchTheory)
{
    auto [a, s] = GetParam();
    unsigned k = analytic::partialWidth(a, 16, s);
    PartialConfig cfg = config(k, s);
    PartialLookup pl(cfg);

    Pcg32 rng(8);
    MeanAccum probes;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> tags(a);
        for (auto &t : tags)
            t = rng.next() & 0xffff;
        SetFixture set(tags);
        // Hit a uniformly random way.
        std::uint32_t incoming = tags[rng.below(a)];
        LookupResult r = pl.lookup(set.input(incoming));
        ASSERT_TRUE(r.hit);
        probes.record(r.probes);
    }
    EXPECT_NEAR(probes.mean(), analytic::partialHit(a, k, s),
                bound(probes));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PartialStatistics,
    ::testing::Values(std::make_tuple(4u, 1u), std::make_tuple(8u, 2u),
                      std::make_tuple(16u, 4u),
                      std::make_tuple(8u, 1u),
                      std::make_tuple(16u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>>
           &info) {
        return "a" + std::to_string(std::get<0>(info.param)) + "_s" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace core
} // namespace assoc
