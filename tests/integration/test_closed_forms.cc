/**
 * @file
 * Closed-form validation: on independent uniform references the
 * whole pipeline (generator -> hierarchy -> meters) must reproduce
 * exactly derivable statistics. This pins the meters' accounting to
 * mathematics rather than to other simulator output.
 *
 * Setup: 1-frame L1 (16B block), fully-associative 8-frame L2
 * (one set, 16B blocks), uniform iid references over 64 blocks.
 * Consequences (derivable by symmetry of LRU under iid uniform):
 *
 *  - The previous reference's block is always the L2 MRU block, and
 *    it is exactly the L1 content, so a read-in is uniform over the
 *    63 *other* blocks.
 *  - Read-in hit ratio = 7/63 (7 cached non-MRU blocks).
 *  - Given a hit, the MRU distance is uniform over {2..8}: f_1 = 0,
 *    f_2..f_8 = 1/7, so MRU hit probes = 1 + 5 = 6.
 *  - The hit way is uniform over the 8 physical frames, so naive
 *    hit probes = 4.5.
 *  - The same two facts price the other scans: SwapMRU hits cost the
 *    distance (5), WideNaive-b hits the group of the frame (2.5 at
 *    b = 2, 1.5 at b = 4) and WideMRU-2 hits at distance d cost
 *    1 + ceil(d/2) (26/7). Misses read every group.
 *
 * Tolerances: each statistic is a mean of n per-event draws whose
 * variance follows from the same closed form (p(1 - p) for a
 * Bernoulli p, the spread of the uniform distribution for probes),
 * and n is the event count the run observed. The draws are
 * independent, except that a way-order scan's hit frame is never
 * the frame of the MRU block, which correlates neighbouring hits
 * weakly and negatively and so only narrows the spread. A mean
 * therefore lies within kZ * sigma / sqrt(n) of its closed form
 * except with probability 2 * (1 - Phi(kZ)) under the normal
 * approximation: 5.7e-7 per check at kZ = 5.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/synthetic.h"

namespace assoc {
namespace {

using core::MruDistanceMeter;
using core::SchemeKind;
using core::SchemeSpec;
using mem::CacheGeometry;
using mem::HierarchyConfig;
using mem::TwoLevelHierarchy;

/** Standard deviations a checked mean may stray (see the header). */
constexpr double kZ = 5.0;

/** Allowed |mean - closed form| for a mean of @p n draws of
 *  variance @p variance. */
double
bound(double variance, std::uint64_t n)
{
    return kZ * std::sqrt(variance / static_cast<double>(n));
}

/** Variance of a Bernoulli @p p draw. */
double
bernoulli(double p)
{
    return p * (1.0 - p);
}

/** Variance of probes drawn uniformly from @p values. */
double
uniformOver(std::initializer_list<double> values)
{
    double sum = 0.0, sq = 0.0;
    for (double v : values) {
        sum += v;
        sq += v * v;
    }
    const double n = static_cast<double>(values.size());
    return sq / n - (sum / n) * (sum / n);
}

/** Expect the read-in hit probes of @p meter to average @p mean,
 *  drawn uniformly from @p values, and every miss to cost @p miss. */
void
expectProbes(const core::ProbeMeter &meter, double mean,
             std::initializer_list<double> values, double miss)
{
    const MeanAccum &hits = meter.stats().read_in_hits;
    EXPECT_NEAR(hits.mean(), mean,
                bound(uniformOver(values), hits.count()))
        << meter.name();
    EXPECT_DOUBLE_EQ(meter.stats().read_in_misses.mean(), miss)
        << meter.name();
}

struct Fixture
{
    HierarchyConfig cfg{CacheGeometry(16, 16, 1),
                        CacheGeometry(8 * 16, 16, 8), true};
    TwoLevelHierarchy hier{cfg};
    std::unique_ptr<core::ProbeMeter> trad, naive, mru, swap, wide_naive2,
        wide_naive4, wide_mru2;
    MruDistanceMeter dist{8};

    Fixture()
    {
        trad = meter(SchemeKind::Traditional);
        naive = meter(SchemeKind::Naive);
        mru = meter(SchemeKind::Mru);
        swap = meter(SchemeKind::SwapMru);
        wide_naive2 = meter(SchemeKind::WideNaive, 2);
        wide_naive4 = meter(SchemeKind::WideNaive, 4);
        wide_mru2 = meter(SchemeKind::WideMru, 2);
        hier.addObserver(&dist);
    }

    std::unique_ptr<core::ProbeMeter>
    meter(SchemeKind kind, unsigned width = 1)
    {
        SchemeSpec spec;
        spec.kind = kind;
        spec.width = width;
        spec.tag_bits = 32;
        std::unique_ptr<core::ProbeMeter> m = spec.makeMeter();
        hier.addObserver(m.get());
        return m;
    }

    void
    run(std::uint64_t refs, std::uint64_t seed = 21)
    {
        trace::UniformRandomTrace t(0, 16, 64, refs, seed);
        hier.run(t);
    }
};

TEST(ClosedForms, ReadInHitRatioIsSevenSixtyThirds)
{
    Fixture f;
    f.run(400000);
    const std::uint64_t ri = f.hier.stats().read_ins;
    double hr = static_cast<double>(f.hier.stats().read_in_hits) /
                static_cast<double>(ri);
    EXPECT_NEAR(hr, 7.0 / 63.0, bound(bernoulli(7.0 / 63.0), ri));
}

TEST(ClosedForms, L1FiltersExactlyConsecutiveRepeats)
{
    Fixture f;
    f.run(400000);
    // P(L1 hit) = P(same block as previous ref) = 1/64.
    EXPECT_NEAR(f.hier.stats().l1MissRatio(), 63.0 / 64.0,
                bound(bernoulli(1.0 / 64.0), f.hier.stats().proc_refs));
}

TEST(ClosedForms, MruDistanceIsUniformOverTwoToEight)
{
    Fixture f;
    f.run(400000);
    EXPECT_DOUBLE_EQ(f.dist.f(1), 0.0);
    const std::uint64_t hits = f.hier.stats().read_in_hits;
    for (unsigned i = 2; i <= 8; ++i)
        EXPECT_NEAR(f.dist.f(i), 1.0 / 7.0,
                    bound(bernoulli(1.0 / 7.0), hits))
            << "i=" << i;
}

TEST(ClosedForms, MruHitProbesAreSix)
{
    Fixture f;
    f.run(400000);
    expectProbes(*f.mru, 6.0, {3, 4, 5, 6, 7, 8, 9}, 9.0);
}

TEST(ClosedForms, SwapMruHitProbesAreFive)
{
    Fixture f;
    f.run(400000);
    expectProbes(*f.swap, 5.0, {2, 3, 4, 5, 6, 7, 8}, 8.0);
}

TEST(ClosedForms, WideMruTwoHitProbesAreTwentySixSevenths)
{
    Fixture f;
    f.run(400000);
    expectProbes(*f.wide_mru2, 26.0 / 7.0, {2, 3, 3, 4, 4, 5, 5}, 5.0);
}

TEST(ClosedForms, NaiveHitProbesAreFourPointFive)
{
    Fixture f;
    f.run(400000);
    expectProbes(*f.naive, 4.5, {1, 2, 3, 4, 5, 6, 7, 8}, 8.0);
}

TEST(ClosedForms, WideNaiveHitProbesFollowTheGroups)
{
    Fixture f;
    f.run(400000);
    expectProbes(*f.wide_naive2, 2.5, {1, 1, 2, 2, 3, 3, 4, 4}, 4.0);
    expectProbes(*f.wide_naive4, 1.5, {1, 1, 1, 1, 2, 2, 2, 2}, 2.0);
}

TEST(ClosedForms, TraditionalIsAlwaysOne)
{
    Fixture f;
    f.run(100000);
    EXPECT_DOUBLE_EQ(f.trad->stats().read_in_hits.mean(), 1.0);
    EXPECT_DOUBLE_EQ(f.trad->stats().read_in_misses.mean(), 1.0);
}

TEST(ClosedForms, NoWriteBacksFromAReadOnlyStream)
{
    Fixture f;
    f.run(50000);
    EXPECT_EQ(f.hier.stats().write_backs, 0u);
}

} // namespace
} // namespace assoc
