#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/stats.h"

namespace assoc {
namespace {

TEST(MeanAccum, EmptyMeanIsZero)
{
    MeanAccum m;
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    EXPECT_EQ(m.count(), 0u);
}

TEST(MeanAccum, SimpleMean)
{
    MeanAccum m;
    m.record(1.0);
    m.record(2.0);
    m.record(6.0);
    EXPECT_DOUBLE_EQ(m.mean(), 3.0);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_DOUBLE_EQ(m.sum(), 9.0);
}

TEST(MeanAccum, WeightedRecord)
{
    MeanAccum m;
    m.record(2.0, 3);
    m.record(10.0, 1);
    EXPECT_DOUBLE_EQ(m.mean(), 4.0);
    EXPECT_EQ(m.count(), 4u);
}

TEST(MeanAccum, MergeCombinesStreams)
{
    MeanAccum a, b;
    a.record(1.0);
    a.record(3.0);
    b.record(5.0);
    b.record(7.0);
    mergeStats(a, b);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 4u);
}

TEST(MeanAccum, MergeWithEmptyIsIdentity)
{
    MeanAccum a, b;
    a.record(2.5);
    mergeStats(a, b);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_EQ(a.count(), 1u);
}

TEST(MeanAccum, ResetClears)
{
    MeanAccum m;
    m.record(4.0);
    m.reset();
    EXPECT_EQ(m.count(), 0u);
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
}

TEST(MeanAccum, VarianceOfConstantIsZero)
{
    MeanAccum m;
    for (int i = 0; i < 10; ++i)
        m.record(3.0);
    EXPECT_DOUBLE_EQ(m.variance(), 0.0);
    EXPECT_DOUBLE_EQ(m.stddev(), 0.0);
}

TEST(MeanAccum, VarianceMatchesHandComputation)
{
    MeanAccum m;
    m.record(2.0);
    m.record(4.0);
    m.record(4.0);
    m.record(4.0);
    m.record(5.0);
    m.record(5.0);
    m.record(7.0);
    m.record(9.0);
    // The classic example: mean 5, population variance 4.
    EXPECT_DOUBLE_EQ(m.mean(), 5.0);
    EXPECT_DOUBLE_EQ(m.variance(), 4.0);
    EXPECT_DOUBLE_EQ(m.stddev(), 2.0);
}

TEST(MeanAccum, EmptyVarianceIsZero)
{
    MeanAccum m;
    EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(MeanAccum, MergePreservesVariance)
{
    MeanAccum a, b, whole;
    for (double v : {1.0, 2.0, 3.0}) {
        a.record(v);
        whole.record(v);
    }
    for (double v : {10.0, 11.0}) {
        b.record(v);
        whole.record(v);
    }
    mergeStats(a, b);
    EXPECT_DOUBLE_EQ(a.variance(), whole.variance());
}

TEST(MeanAccum, WeightedRecordAffectsVariance)
{
    MeanAccum a, b;
    a.record(2.0, 3);
    a.record(8.0, 1);
    for (double v : {2.0, 2.0, 2.0, 8.0})
        b.record(v);
    EXPECT_DOUBLE_EQ(a.variance(), b.variance());
}

TEST(RatioAccum, EmptyRatioIsZero)
{
    RatioAccum r;
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(RatioAccum, CountsHitsAndMisses)
{
    RatioAccum r;
    r.record(true);
    r.record(false);
    r.record(true);
    r.record(true);
    EXPECT_EQ(r.hits(), 3u);
    EXPECT_EQ(r.misses(), 1u);
    EXPECT_EQ(r.tries(), 4u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.75);
}

TEST(RatioAccum, ResetClears)
{
    RatioAccum r;
    r.record(true);
    r.reset();
    EXPECT_EQ(r.tries(), 0u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

/** A nested record: one member of each class. */
struct Inner
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    template <class V>
    static constexpr void
    fields(V &&v)
    {
        v("a", &Inner::a, StatClass::Deterministic);
        v("b", &Inner::b, StatClass::Scheduled);
    }
};

/** Every kind of member a field list can hold. */
struct Outer
{
    std::uint64_t n = 0;
    MeanAccum cost;
    Inner det;   ///< listed Deterministic
    Inner sched; ///< listed Scheduled
    std::uint64_t retries = 0;

    template <class V>
    static constexpr void
    fields(V &&v)
    {
        v("n", &Outer::n, StatClass::Deterministic);
        v("cost", &Outer::cost, StatClass::Deterministic);
        v("det", &Outer::det, StatClass::Deterministic);
        v("sched", &Outer::sched, StatClass::Scheduled);
        v("retries", &Outer::retries, StatClass::Scheduled);
    }
};

/** A record whose list forgot a member. */
struct Forgetful
{
    std::uint64_t listed = 0;
    std::uint64_t forgotten = 0;

    template <class V>
    static constexpr void
    fields(V &&v)
    {
        v("listed", &Forgetful::listed, StatClass::Deterministic);
    }
};

static_assert(listsEveryMember<Inner>());
static_assert(listsEveryMember<Outer>());
static_assert(!listsEveryMember<Forgetful>());

Outer
sample(std::uint64_t k)
{
    Outer o;
    o.n = k;
    o.cost.record(static_cast<double>(k));
    o.det = {k, 10 * k};
    o.sched = {100 * k, 1000 * k};
    o.retries = 7 * k;
    return o;
}

TEST(StatFields, MergeAddsCountersMergesAccumsAndRecurses)
{
    Outer total = sample(1);
    mergeStats(total, sample(2));
    EXPECT_EQ(total.n, 3u);
    EXPECT_EQ(total.cost.count(), 2u);
    EXPECT_EQ(total.cost.sum(), 3.0);
    EXPECT_EQ(total.cost.variance(), 0.25);
    EXPECT_EQ(total.det.a, 3u);
    EXPECT_EQ(total.det.b, 30u);
    EXPECT_EQ(total.sched.a, 300u);
    EXPECT_EQ(total.sched.b, 3000u);
    EXPECT_EQ(total.retries, 21u);
}

TEST(StatFields, IdenticalComparesOnlyDeterministicMembers)
{
    const Outer base = sample(3);
    Outer other = base;
    other.retries += 1; // Scheduled
    other.det.b += 1;   // Scheduled inside a Deterministic record
    other.sched.a += 1; // Deterministic inside a Scheduled record
    EXPECT_TRUE(identicalStats(base, other));

    other = base;
    other.n += 1;
    EXPECT_FALSE(identicalStats(base, other));
    other = base;
    other.det.a += 1;
    EXPECT_FALSE(identicalStats(base, other));
}

TEST(StatFields, IdenticalComparesMeanAccumsBitForBit)
{
    Outer a, b;
    a.cost.record(1.0);
    a.cost.record(3.0);
    b.cost.record(2.0);
    b.cost.record(2.0);
    // Same count, sum and mean; the sums of squares differ.
    EXPECT_EQ(a.cost.mean(), b.cost.mean());
    EXPECT_FALSE(identicalStats(a, b));

    // -0.0 == 0.0 as doubles, but not as bits.
    a.cost = MeanAccum();
    b.cost = MeanAccum();
    EXPECT_TRUE(identicalStats(a, b));
    forEachStat(b.cost, [](const char *name, auto &v, StatClass) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     double>)
            if (std::string(name) == "sum")
                v = -0.0;
    });
    EXPECT_EQ(a.cost.sum(), b.cost.sum());
    EXPECT_FALSE(identicalStats(a, b));
}

TEST(StatFields, ForEachStatWalksNumbersInListOrder)
{
    const Outer o = sample(1);
    std::vector<std::string> seen;
    forEachStat(o, [&](const char *name, const auto &, StatClass cls) {
        seen.push_back(std::string(name) +
                       (cls == StatClass::Deterministic ? "/d" : "/s"));
    });
    // A MeanAccum is a record of three numbers. A member is
    // Deterministic only if every record holding it is.
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "n/d", "sum/d", "sumsq/d", "n/d", "a/d", "b/s",
                        "a/s", "b/s", "retries/s"}));

    // Mutable walks write through to the record.
    Outer m;
    forEachStat(m, [](const char *, auto &v, StatClass) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     std::uint64_t>)
            v = 5;
    });
    EXPECT_EQ(m.n, 5u);
    EXPECT_EQ(m.cost.count(), 5u);
    EXPECT_EQ(m.sched.b, 5u);
    EXPECT_EQ(m.retries, 5u);
}

} // namespace
} // namespace assoc
