#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/analytic.h"
#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "trace/ftr_reader.h"
#include "trace/trace_file.h"

namespace assoc {
namespace {

using core::MruDistanceMeter;
using core::ProbeMeter;
using core::SchemeKind;
using core::SchemeSpec;
using mem::CacheGeometry;
using mem::HierarchyConfig;
using mem::TwoLevelHierarchy;

trace::AtumLikeConfig
mediumTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 4;
    cfg.refs_per_segment = 100000;
    return cfg;
}

/** Full pipeline: generator -> hierarchy -> meters, invariants. */
TEST(Pipeline, ConservationInvariants)
{
    trace::AtumLikeGenerator gen(mediumTrace());
    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, 4), true};
    TwoLevelHierarchy h(cfg);

    std::vector<std::unique_ptr<ProbeMeter>> meters;
    for (SchemeKind kind :
         {SchemeKind::Traditional, SchemeKind::Naive, SchemeKind::Mru}) {
        SchemeSpec spec;
        spec.kind = kind;
        meters.push_back(spec.makeMeter());
        h.addObserver(meters.back().get());
    }
    meters.push_back(SchemeSpec::paperPartial(4).makeMeter());
    h.addObserver(meters.back().get());

    h.run(gen);
    const mem::HierarchyStats &s = h.stats();

    EXPECT_EQ(s.proc_refs, 400000u);
    EXPECT_EQ(s.l1_hits + s.l1_misses, s.proc_refs);
    EXPECT_EQ(s.read_ins, s.l1_misses);
    EXPECT_EQ(s.read_in_hits + s.read_in_misses, s.read_ins);
    EXPECT_LE(s.write_backs, s.read_ins);
    EXPECT_LE(s.globalMissRatio(), s.l1MissRatio());

    for (const auto &m : meters) {
        const core::ProbeStats &ps = m->stats();
        // Every level-two request was priced exactly once.
        EXPECT_EQ(ps.read_in_hits.count() + ps.read_in_misses.count() +
                      ps.write_backs.count(),
                  s.read_ins + s.write_backs)
            << m->name();
    }
}

TEST(Pipeline, ProbeBoundsPerScheme)
{
    trace::AtumLikeGenerator gen(mediumTrace());
    const unsigned a = 8;
    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, a), true};
    TwoLevelHierarchy h(cfg);

    SchemeSpec trad, naive, mru;
    trad.kind = SchemeKind::Traditional;
    naive.kind = SchemeKind::Naive;
    mru.kind = SchemeKind::Mru;
    SchemeSpec partial = SchemeSpec::paperPartial(a);

    auto mt = trad.makeMeter();
    auto mn = naive.makeMeter();
    auto mm = mru.makeMeter();
    auto mp = partial.makeMeter();
    for (auto *m : {mt.get(), mn.get(), mm.get(), mp.get()})
        h.addObserver(m);
    h.run(gen);

    // Traditional: exactly one probe everywhere.
    EXPECT_DOUBLE_EQ(mt->stats().read_in_hits.mean(), 1.0);
    EXPECT_DOUBLE_EQ(mt->stats().read_in_misses.mean(), 1.0);

    // Naive: hits in [1, a], misses exactly a.
    EXPECT_GE(mn->stats().read_in_hits.mean(), 1.0);
    EXPECT_LE(mn->stats().read_in_hits.mean(), a);
    EXPECT_DOUBLE_EQ(mn->stats().read_in_misses.mean(), a);

    // MRU: hits in [2, a+1], misses exactly a+1.
    EXPECT_GE(mm->stats().read_in_hits.mean(), 2.0);
    EXPECT_LE(mm->stats().read_in_hits.mean(), a + 1.0);
    EXPECT_DOUBLE_EQ(mm->stats().read_in_misses.mean(), a + 1.0);

    // Partial: a hit costs at least 2 (a step-1 probe plus the
    // matching full compare) and a miss at least s; both cost at
    // most s + a (every tag fully compared).
    unsigned s = partial.partial_subsets;
    EXPECT_GE(mp->stats().read_in_hits.mean(), 2.0);
    EXPECT_LE(mp->stats().read_in_hits.mean(), s + a + 0.0);
    EXPECT_GE(mp->stats().read_in_misses.mean(), static_cast<double>(s));
    EXPECT_LE(mp->stats().read_in_misses.mean(), s + a + 0.0);
}

TEST(Pipeline, WriteBackOptimizationSavesExactlyWriteBackProbes)
{
    trace::AtumLikeGenerator gen(mediumTrace());
    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, 4), true};
    TwoLevelHierarchy h(cfg);
    SchemeSpec naive;
    naive.kind = SchemeKind::Naive;
    auto with_opt = naive.makeMeter(true);
    auto without = naive.makeMeter(false);
    h.addObserver(with_opt.get());
    h.addObserver(without.get());
    h.run(gen);

    // Same stream, so read-in numbers are identical...
    EXPECT_DOUBLE_EQ(with_opt->stats().read_in_hits.mean(),
                     without->stats().read_in_hits.mean());
    EXPECT_DOUBLE_EQ(with_opt->stats().read_in_misses.mean(),
                     without->stats().read_in_misses.mean());
    // ...and the optimized write-backs cost zero instead of > 1.
    EXPECT_DOUBLE_EQ(with_opt->stats().write_backs.mean(), 0.0);
    EXPECT_GT(without->stats().write_backs.mean(), 1.0);
    EXPECT_LT(with_opt->stats().totalMean(),
              without->stats().totalMean());
}

TEST(Pipeline, MruDistancesFormAProbabilityDistribution)
{
    trace::AtumLikeGenerator gen(mediumTrace());
    const unsigned a = 8;
    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, a), true};
    TwoLevelHierarchy h(cfg);
    MruDistanceMeter dist(a);
    h.addObserver(&dist);
    h.run(gen);

    ASSERT_GT(dist.distances().total(), 0u);
    double sum = 0.0;
    for (unsigned i = 1; i <= a; ++i)
        sum += dist.f(i);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_EQ(dist.distances().count(0), 0u);
    EXPECT_EQ(dist.distances().overflow(), 0u);
    // MRU hit count equals the simulator's read-in hit count.
    EXPECT_EQ(dist.distances().total(), h.stats().read_in_hits);
}

TEST(Pipeline, MeasuredMruHitsMatchDistanceDistribution)
{
    // Cross-module consistency: the MRU meter's hit probes must
    // equal the analytic formula evaluated on the measured f_i.
    trace::AtumLikeGenerator gen(mediumTrace());
    const unsigned a = 4;
    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, a), true};
    TwoLevelHierarchy h(cfg);
    SchemeSpec mru;
    mru.kind = SchemeKind::Mru;
    auto meter = mru.makeMeter();
    MruDistanceMeter dist(a);
    h.addObserver(meter.get());
    h.addObserver(&dist);
    h.run(gen);

    std::vector<double> f(a + 1, 0.0);
    for (unsigned i = 1; i <= a; ++i)
        f[i] = dist.f(i);
    double predicted = core::analytic::mruHit(f);
    EXPECT_NEAR(meter->stats().read_in_hits.mean(), predicted, 1e-9);
}

TEST(Pipeline, TraceFileRoundTripGivesIdenticalResults)
{
    // Generator -> framed file -> reader must price identically.
    trace::AtumLikeConfig tcfg;
    tcfg.segments = 2;
    tcfg.refs_per_segment = 30000;
    trace::AtumLikeGenerator gen(tcfg);

    std::string path = ::testing::TempDir() + "pipeline_trace.ftr";
    trace::writeTraceFile(gen, path);
    trace::FtrTraceSource file(path);

    HierarchyConfig cfg{CacheGeometry(16384, 16, 1),
                        CacheGeometry(256 * 1024, 32, 4), true};

    auto run = [&](trace::TraceSource &src) {
        TwoLevelHierarchy h(cfg);
        SchemeSpec naive;
        naive.kind = SchemeKind::Naive;
        auto m = naive.makeMeter();
        h.addObserver(m.get());
        h.run(src);
        return std::make_pair(h.stats().localMissRatio(),
                              m->stats().totalMean());
    };

    auto from_gen = run(gen);
    auto from_file = run(file);
    EXPECT_DOUBLE_EQ(from_gen.first, from_file.first);
    EXPECT_DOUBLE_EQ(from_gen.second, from_file.second);
    std::remove(path.c_str());
}

TEST(Pipeline, ReplayIsDeterministic)
{
    trace::AtumLikeConfig tcfg;
    tcfg.segments = 2;
    tcfg.refs_per_segment = 30000;

    auto run = [&]() {
        trace::AtumLikeGenerator gen(tcfg);
        HierarchyConfig cfg{CacheGeometry(4096, 16, 1),
                            CacheGeometry(65536, 32, 8), true};
        TwoLevelHierarchy h(cfg);
        auto m = SchemeSpec::paperPartial(8).makeMeter();
        h.addObserver(m.get());
        h.run(gen);
        return m->stats().totalMean();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace assoc
