#include <gtest/gtest.h>

#include "mem/cache.h"
#include "trace/synthetic.h"

namespace assoc {
namespace trace {
namespace {

TEST(LoopTrace, AllHitsOnceWarmWhenItFits)
{
    // 8-block loop in a 16-frame fully-associative cache.
    mem::WriteBackCache cache(mem::CacheGeometry(256, 16, 16));
    LoopTrace loop(0, 16, 8, 80);
    MemRef r;
    std::uint64_t misses = 0;
    while (loop.next(r)) {
        mem::BlockAddr b = cache.geom().blockAddrOf(r.addr);
        int way = cache.findWay(b);
        if (way < 0) {
            ++misses;
            cache.fill(b, false);
        } else {
            cache.touch(cache.geom().setOf(b), way);
        }
    }
    EXPECT_EQ(misses, 8u); // only the first lap misses
}

TEST(LoopTrace, LruPathologyWhenOneBlockTooBig)
{
    // Classic LRU worst case: a cyclic sweep over a+1 blocks in an
    // a-frame LRU set misses on every reference.
    const unsigned a = 4;
    mem::WriteBackCache cache(mem::CacheGeometry(a * 16, 16, a));
    ASSERT_EQ(cache.geom().sets(), 1u);
    LoopTrace loop(0, 16, a + 1, 200);
    MemRef r;
    std::uint64_t misses = 0;
    while (loop.next(r)) {
        mem::BlockAddr b = cache.geom().blockAddrOf(r.addr);
        int way = cache.findWay(b);
        if (way < 0) {
            ++misses;
            cache.fill(b, false);
        } else {
            cache.touch(cache.geom().setOf(b), way);
        }
    }
    EXPECT_EQ(misses, 200u);
}

TEST(UniformRandomTrace, StaysInRegionAndIsDeterministic)
{
    UniformRandomTrace t1(0x4000, 32, 64, 1000, 7);
    UniformRandomTrace t2(0x4000, 32, 64, 1000, 7);
    MemRef a, b;
    while (t1.next(a)) {
        ASSERT_TRUE(t2.next(b));
        EXPECT_EQ(a, b);
        EXPECT_GE(a.addr, 0x4000u);
        EXPECT_LT(a.addr, 0x4000u + 64 * 32);
        EXPECT_EQ(a.addr % 32, 0u);
    }
}

TEST(UniformRandomTrace, WriteFractionHonored)
{
    UniformRandomTrace t(0, 16, 16, 20000, 3, 0.25);
    MemRef r;
    int writes = 0, n = 0;
    while (t.next(r)) {
        writes += r.isWrite();
        ++n;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(UniformRandomTrace, SteadyStateLruHitRatioIsAOverN)
{
    // Uniform iid refs over N blocks through an a-frame LRU cache:
    // P(hit) = a/N once warm.
    const unsigned a = 8, n_blocks = 64;
    mem::WriteBackCache cache(mem::CacheGeometry(a * 16, 16, a));
    UniformRandomTrace t(0, 16, n_blocks, 120000, 11);
    MemRef r;
    std::uint64_t hits = 0, total = 0;
    while (t.next(r)) {
        mem::BlockAddr b = cache.geom().blockAddrOf(r.addr);
        int way = cache.findWay(b);
        ++total;
        if (way >= 0) {
            ++hits;
            cache.touch(cache.geom().setOf(b), way);
        } else {
            cache.fill(b, false);
        }
    }
    EXPECT_NEAR(static_cast<double>(hits) / total,
                static_cast<double>(a) / n_blocks, 0.01);
}

TEST(UniformRandomTrace, ResetReplaysTheSameStream)
{
    UniformRandomTrace t(0, 16, 32, 100, 5);
    std::vector<MemRef> first;
    MemRef r;
    while (t.next(r))
        first.push_back(r);
    t.reset();
    std::size_t i = 0;
    while (t.next(r))
        ASSERT_EQ(r, first[i++]);
    EXPECT_EQ(i, first.size());
}

TEST(Synthetic, RejectBadParameters)
{
    EXPECT_THROW(LoopTrace(0, 0, 1, 1), FatalError);
    EXPECT_THROW(LoopTrace(0, 16, 0, 1), FatalError);
    EXPECT_THROW(UniformRandomTrace(0, 16, 0, 1), FatalError);
    EXPECT_THROW(UniformRandomTrace(0, 16, 4, 1, 1, 1.5), FatalError);
}

} // namespace
} // namespace trace
} // namespace assoc
