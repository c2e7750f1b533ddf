/**
 * @file
 * Hierarchy-level analytic check: Table 4's three meters (Naive,
 * MRU and the paper's Partial at t = 16) priced over uniform
 * independent references through a whole TwoLevelHierarchy, held to
 * Section 2's cost model, after Majumdar & Radhakrishnan's
 * analytic-versus-simulated method (PAPERS.md).
 *
 * Setup, at a = 4, 8 and 16: a one-frame level one and a 64-set
 * a-way level two, both with 32-byte blocks, and uniform references
 * (reads only, so no write-backs) over 64 * 2^16 blocks. Every set
 * then sees exactly 2^16 = 2^t tags, so its t-bit tags are the full
 * tags (no alias) and every t-bit value is equally likely. A warm-up
 * pass fills every set before the meters' statistics are reset, so
 * every measured lookup sees a full set.
 *
 *  - A read-in miss scans every way: Naive costs exactly a probes
 *    and MRU a + 1 (the list read), with no alias hit.
 *  - A read-in hit lands on a uniform physical way: LRU ignores frame
 *    numbers, so under uniform references a block's frame is
 *    exchangeable once the set is full (the frame holding the
 *    level-one block is excluded, but it is itself uniform). Naive
 *    hits cost w + 1 probes for a uniform w < a: mean (a+1)/2,
 *    variance (a^2 - 1)/12.
 *  - A read-in miss under Partial costs s step-1 probes plus one full
 *    compare per valid way whose k-bit collection field matches the
 *    incoming tag's. analytic::partialMiss prices a match at 2^-k.
 *    Relabelling the tag values of a set maps the trace and the LRU
 *    dynamics onto themselves, so given the incoming tag each stored
 *    tag is uniform over the 2^t - 1 other values. Each transform is
 *    a bijection per way slot, so 2^(t-k) - 1 of those share the
 *    incoming tag's collection field: a way matches with
 *    q = (2^(t-k) - 1) / (2^t - 1), just below 2^-k. The exact mean is
 *    s + a*q; the model's s + a*2^-k is larger by
 *    a*(2^-k - q) = a*(1 - 2^-k)/(2^t - 1), 1.4e-5 per way at t = 16
 *    and k = 4, so the check uses the exact value.
 *
 * Tolerances: each checked mean averages n per-event draws, with n
 * the event count the run observed, and lies within kZ * sigma /
 * sqrt(n) of its expectation except with probability
 * 2 * (1 - Phi(kZ)) under the normal approximation: 5.7e-7 per check
 * at kZ = 5. Partial's false matches are a sum of a indicators of
 * probability q. Ways of one collection hold distinct tags, which
 * only narrows the spread (sampling without replacement); across
 * collections and across misses the indicators are independent up
 * to terms of order 2^-t. So sigma^2 = a*q*(1 - q). Naive's hit ways
 * are independent uniform draws for the same reason as the closed
 * forms' (tests/integration/test_closed_forms.cc).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/analytic.h"
#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/synthetic.h"
#include "util/bitops.h"

namespace assoc {
namespace {

using core::SchemeKind;
using core::SchemeSpec;
using mem::CacheGeometry;

/** Standard deviations a checked mean may stray (see the header). */
constexpr double kZ = 5.0;

constexpr unsigned kTagBits = 16; ///< Table 4's t
constexpr unsigned kSets = 64;
constexpr std::uint32_t kBlock = 32;
/** 2^t tags per set: every t-bit value, and nothing wider. */
constexpr std::uint32_t kBlocks = kSets << kTagBits;

/** Allowed |mean - expectation| for a mean of @p n draws of
 *  variance @p variance. */
double
bound(double variance, std::uint64_t n)
{
    return kZ * std::sqrt(variance / static_cast<double>(n));
}

class HierarchyAnalytic : public ::testing::TestWithParam<unsigned>
{};

TEST_P(HierarchyAnalytic, TableFourMetersMatchTheCostModel)
{
    const unsigned a = GetParam();
    mem::HierarchyConfig cfg{CacheGeometry(kBlock, kBlock, 1),
                             CacheGeometry(kSets * a * kBlock, kBlock, a),
                             true};
    mem::TwoLevelHierarchy hier(cfg);

    SchemeSpec naive, mru;
    naive.kind = SchemeKind::Naive;
    mru.kind = SchemeKind::Mru;
    const SchemeSpec partial = SchemeSpec::paperPartial(a);
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    core::MeterBank bank;
    for (const SchemeSpec &s : {naive, mru, partial}) {
        meters.push_back(s.makeMeter());
        bank.add(meters.back().get());
    }
    hier.addObserver(&bank);

    // Warm up until every set is full, then count from scratch.
    trace::UniformRandomTrace warm(0, kBlock, kBlocks, 200000, 1);
    hier.run(warm);
    for (std::uint32_t set = 0; set < kSets; ++set)
        ASSERT_EQ(maskBits(a), hier.l2().validMask(set)) << set;
    for (auto &m : meters)
        m->stats() = core::ProbeStats{};

    trace::UniformRandomTrace src(0, kBlock, kBlocks, 3000000, 2);
    hier.run(src);

    for (auto &m : meters) {
        EXPECT_EQ(0u, m->stats().alias_hits) << m->name();
        EXPECT_EQ(0u, m->stats().write_backs.count()) << m->name();
    }

    // Misses scan every way: exact.
    const MeanAccum &naive_miss = meters[0]->stats().read_in_misses;
    const MeanAccum &mru_miss = meters[1]->stats().read_in_misses;
    ASSERT_GT(naive_miss.count(), 0u);
    EXPECT_EQ(naive_miss.sum(), static_cast<double>(a) * naive_miss.count());
    EXPECT_EQ(mru_miss.sum(),
              static_cast<double>(a + 1) * mru_miss.count());

    // Naive hits: a uniform way.
    const MeanAccum &naive_hit = meters[0]->stats().read_in_hits;
    ASSERT_GT(naive_hit.count(), 100u);
    EXPECT_NEAR(naive_hit.mean(), core::analytic::naiveHit(a),
                bound((a * a - 1.0) / 12.0, naive_hit.count()));

    // Partial misses: s + a*q, against the model's s + a*2^-k.
    const unsigned k = partial.partial_k, s = partial.partial_subsets;
    const double q = (std::ldexp(1.0, kTagBits - k) - 1.0) /
                     (std::ldexp(1.0, kTagBits) - 1.0);
    const double bias = a * (std::ldexp(1.0, -static_cast<int>(k)) - q);
    const MeanAccum &partial_miss = meters[2]->stats().read_in_misses;
    EXPECT_NEAR(partial_miss.mean(),
                core::analytic::partialMiss(a, k, s) - bias,
                bound(a * q * (1.0 - q), partial_miss.count()));
}

INSTANTIATE_TEST_SUITE_P(TableFour, HierarchyAnalytic,
                         ::testing::Values(4u, 8u, 16u),
                         [](const ::testing::TestParamInfo<unsigned>
                                &info) {
                             return std::string("a").append(
                                 std::to_string(info.param));
                         });

} // namespace
} // namespace assoc
