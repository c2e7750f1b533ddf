/**
 * @file
 * Tests of the library-level experiment runner (sim/runner.h): the
 * API the bench harnesses and downstream users drive sweeps with.
 */

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/synthetic.h"

namespace assoc {
namespace sim {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 40000;
    return cfg;
}

TEST(Runner, DefaultSpecIsThePaperConfiguration)
{
    RunSpec spec;
    EXPECT_EQ(spec.hier.l1.name(), "16K-16");
    EXPECT_EQ(spec.hier.l2.name(), "256K-32 4-way");
    EXPECT_TRUE(spec.wb_optimization);
    EXPECT_DOUBLE_EQ(spec.coherency_rate, 0.0);
}

TEST(Runner, NamesAndProbesParallelSchemes)
{
    trace::AtumLikeGenerator gen(smallTrace());
    RunSpec spec;
    core::SchemeSpec naive, mru;
    naive.kind = core::SchemeKind::Naive;
    mru.kind = core::SchemeKind::Mru;
    spec.schemes = {naive, mru};
    RunOutput out = runTrace(gen, spec);
    ASSERT_EQ(out.names.size(), 2u);
    ASSERT_EQ(out.probes.size(), 2u);
    EXPECT_EQ(out.names[0], "Naive");
    EXPECT_EQ(out.names[1], "MRU");
    EXPECT_GT(out.probes[0].read_in_hits.count(), 0u);
}

TEST(Runner, NoSchemesIsFine)
{
    trace::AtumLikeGenerator gen(smallTrace());
    RunSpec spec;
    RunOutput out = runTrace(gen, spec);
    EXPECT_TRUE(out.names.empty());
    EXPECT_GT(out.stats.proc_refs, 0u);
}

TEST(Runner, DistancesOnlyWhenRequested)
{
    trace::AtumLikeGenerator gen(smallTrace());
    RunSpec spec;
    RunOutput out = runTrace(gen, spec);
    EXPECT_TRUE(out.f.empty());

    gen.reset();
    spec.with_distances = true;
    out = runTrace(gen, spec);
    ASSERT_EQ(out.f.size(), spec.hier.l2.assoc() + 1);
    double sum = 0;
    for (unsigned i = 1; i <= spec.hier.l2.assoc(); ++i)
        sum += out.f[i];
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Runner, FastAndSlowPathsAgreeWithoutCoherency)
{
    // The occupancy-sampling path must not perturb the simulation.
    trace::AtumLikeGenerator gen(smallTrace());
    RunSpec spec;
    core::SchemeSpec naive;
    naive.kind = core::SchemeKind::Naive;
    spec.schemes = {naive};
    RunOutput fast = runTrace(gen, spec);

    gen.reset();
    spec.occupancy_sample_period = 5000;
    RunOutput slow = runTrace(gen, spec);

    EXPECT_EQ(fast.stats.read_ins, slow.stats.read_ins);
    EXPECT_DOUBLE_EQ(fast.probes[0].totalMean(),
                     slow.probes[0].totalMean());
    EXPECT_GT(slow.mean_occupancy, 0.0);
    EXPECT_LE(slow.mean_occupancy, 1.0);
}

TEST(Runner, CoherencyRatePerturbsTheCache)
{
    trace::AtumLikeGenerator gen(smallTrace());
    RunSpec spec;
    RunOutput clean = runTrace(gen, spec);

    gen.reset();
    spec.coherency_rate = 0.01;
    RunOutput noisy = runTrace(gen, spec);

    EXPECT_GT(noisy.stats.coherency_invalidations, 0u);
    EXPECT_GT(noisy.stats.localMissRatio(),
              clean.stats.localMissRatio());
}

TEST(Runner, WorksWithAnyTraceSource)
{
    trace::LoopTrace loop(0, 32, 64, 50000);
    RunSpec spec;
    core::SchemeSpec trad;
    trad.kind = core::SchemeKind::Traditional;
    spec.schemes = {trad};
    RunOutput out = runTrace(loop, spec);
    EXPECT_EQ(out.stats.proc_refs, 50000u);
    // A 64-block loop fits the 16K L1 after the first lap.
    EXPECT_LT(out.stats.l1MissRatio(), 0.01);
}

TEST(Runner, CacheNameMatchesPaperNotation)
{
    EXPECT_EQ(cacheName(262144, 32), "256K-32");
    EXPECT_EQ(cacheName(4096, 16), "4K-16");
}

TEST(Runner, CacheNamePrintsSubKilobyteSizesInBytes)
{
    // 512 / 1024 would integer-divide to "0K"; bytes are spelled
    // out below 1 KiB instead.
    EXPECT_EQ(cacheName(512, 16), "512B-16");
    EXPECT_EQ(cacheName(256, 8), "256B-8");
    EXPECT_EQ(cacheName(1024, 16), "1K-16");
}

TEST(Runner, Table4ConfigsMatchThePaper)
{
    const auto &cfgs = table4Configs();
    ASSERT_EQ(cfgs.size(), 8u);
    EXPECT_EQ(cfgs[0].l1_bytes, 16384u);
    EXPECT_EQ(cfgs[0].l2_bytes, 262144u);
    EXPECT_EQ(cfgs[3].l2_block, 64u); // the 4K-16 256K-64 row
    EXPECT_EQ(cfgs[7].l2_bytes, 65536u);
}

} // namespace
} // namespace sim
} // namespace assoc
