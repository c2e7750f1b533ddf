/**
 * @file
 * Allocation budget of the hot paths.
 *
 * This executable replaces the global operator new (plain, array and
 * aligned forms) with counting versions, so it is built apart from
 * every other test binary. It holds the per-reference paths to zero
 * heap allocations once warm: TwoLevelHierarchy::replay with every
 * lookup meter attached, sim::runTrace (its set-up allocations must
 * not grow with the trace), and svc Session::request. Trace synthesis
 * is held to a small bound: its process models grow vectors
 * (amortized) as their footprints grow.
 *
 * A check whose message is built eagerly — a std::string longer than
 * the small-string buffer, made on every call even when the check
 * passes — shows up here as one allocation per call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/kernels.h"
#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/coherency.h"
#include "mem/hierarchy.h"
#include "sim/runner.h"
#include "svc/service.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    std::size_t align = static_cast<std::size_t>(al);
    if (align < sizeof(void *))
        align = sizeof(void *);
    if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace assoc {
namespace {

/** Allocations made since construction. */
class AllocCounter
{
  public:
    std::uint64_t
    count() const
    {
        return allocations.load(std::memory_order_relaxed) - start_;
    }

  private:
    std::uint64_t start_ = allocations.load(std::memory_order_relaxed);
};

TEST(AllocCounter, SeesEveryForm)
{
    AllocCounter c;
    delete new int(1);
    delete[] new int[4];
    struct alignas(64) Line
    {
        char bytes[64];
    };
    delete new Line;
    delete[] new Line[2];
    EXPECT_EQ(c.count(), 4u);
}

/** A short ATUM-like trace: three segments, so flush markers fall in
 *  both halves of a replay. */
std::vector<trace::MemRef>
shortTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 3;
    cfg.refs_per_segment = 8000;
    trace::AtumLikeGenerator gen(cfg);
    return trace::materialize(gen);
}

/** A meter of every SchemeKind (the b-wide ones at b = 2), plus
 *  MRU-2 and WayMemo over MRU, all at the default t = 16. */
std::vector<core::SchemeSpec>
everyScheme(unsigned a)
{
    std::vector<core::SchemeSpec> specs;
    for (core::SchemeKind kind :
         {core::SchemeKind::Traditional, core::SchemeKind::Naive,
          core::SchemeKind::Mru, core::SchemeKind::WayMemo,
          core::SchemeKind::WayPredict, core::SchemeKind::SwapMru,
          core::SchemeKind::WideNaive, core::SchemeKind::WideMru}) {
        core::SchemeSpec s;
        s.kind = kind;
        s.width = 2;
        specs.push_back(s);
    }
    // The default partial spec (k = 4, one subset) does not fit a
    // 16-bit tag past 4 ways, so Partial takes the paper's rule, with
    // its XOR transform and with none.
    core::SchemeSpec partial = core::SchemeSpec::paperPartial(a);
    specs.push_back(partial);
    partial.transform = core::TransformKind::None;
    specs.push_back(partial);
    core::SchemeSpec mru2;
    mru2.kind = core::SchemeKind::Mru;
    mru2.mru_list_len = 2;
    specs.push_back(mru2);
    core::SchemeSpec memo_mru;
    memo_mru.kind = core::SchemeKind::WayMemo;
    memo_mru.memo_underlying = core::SchemeKind::Mru;
    specs.push_back(memo_mru);
    return specs;
}

/**
 * Replay @p refs through a hierarchy built from @p cfg with every
 * meter attached: the first half warms it up (lazily sized scratch,
 * validated strategies), the second half is counted.
 * @return allocations made by the second half.
 */
std::uint64_t
replayAllocations(const mem::HierarchyConfig &cfg,
                  const std::vector<trace::MemRef> &refs,
                  double coherency_rate = 0.0)
{
    const unsigned a = cfg.l2.assoc();
    // Below the full tag width, so every meter slices its tags.
    EXPECT_GT(cfg.l2.fullTagBits(), 16u);
    mem::TwoLevelHierarchy hier(cfg);
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    for (const core::SchemeSpec &s : everyScheme(a)) {
        meters.push_back(s.makeMeter());
        hier.addObserver(meters.back().get());
    }
    core::MruDistanceMeter dist(a);
    hier.addObserver(&dist);
    mem::CoherencyTraffic remote(coherency_rate);
    mem::CoherencyTraffic *step = coherency_rate > 0.0 ? &remote : nullptr;

    const std::size_t half = refs.size() / 2;
    hier.replay(refs.data(), half, step);
    AllocCounter c;
    hier.replay(refs.data() + half, refs.size() - half, step);
    const std::uint64_t n = c.count();
    EXPECT_GT(hier.stats().read_ins, 0u);
    return n;
}

mem::HierarchyConfig
smallHierarchy(unsigned a, mem::ReplPolicy policy)
{
    // 32 KB with 16-byte blocks keeps the full tag above 16 bits up
    // to direct-mapped (17 bits at a = 1).
    mem::HierarchyConfig cfg{mem::CacheGeometry(4096, 16, 1),
                             mem::CacheGeometry(32768, 16, a), true};
    cfg.l2_replacement = policy;
    return cfg;
}

TEST(AllocFree, ReplayWithEveryMeterAllocatesNothing)
{
    const std::vector<trace::MemRef> refs = shortTrace();
    for (const core::LookupKernels *k : core::registeredKernels()) {
        core::ScopedKernelOverride o(*k);
        for (unsigned a : {1u, 2u, 4u, 8u, 16u, 32u}) {
            for (mem::ReplPolicy p :
                 {mem::ReplPolicy::Lru, mem::ReplPolicy::Fifo,
                  mem::ReplPolicy::Random, mem::ReplPolicy::TreePlru}) {
                EXPECT_EQ(replayAllocations(smallHierarchy(a, p), refs),
                          0u)
                    << k->name << " a=" << a
                    << " policy=" << static_cast<int>(p);
            }
            mem::HierarchyConfig incl =
                smallHierarchy(a, mem::ReplPolicy::Lru);
            incl.enforce_inclusion = true;
            EXPECT_EQ(replayAllocations(incl, refs), 0u)
                << k->name << " a=" << a << " enforce_inclusion";
            mem::HierarchyConfig wt = smallHierarchy(a, mem::ReplPolicy::Lru);
            wt.write_policy = mem::L1WritePolicy::WriteThrough;
            EXPECT_EQ(replayAllocations(wt, refs), 0u)
                << k->name << " a=" << a << " write-through L1";
            EXPECT_EQ(replayAllocations(
                          smallHierarchy(a, mem::ReplPolicy::Lru), refs,
                          0.01),
                      0u)
                << k->name << " a=" << a << " coherency 0.01";
        }
    }
}

/** Allocations of one sim::runTrace over the first @p n of @p refs:
 *  a Table 4 job at a = 16 with its three meters. */
std::uint64_t
runTraceAllocations(const std::vector<trace::MemRef> &refs, std::size_t n,
                    bool guarded)
{
    trace::VectorTraceSource src(
        std::vector<trace::MemRef>(refs.begin(), refs.begin() + n));
    sim::RunSpec spec;
    spec.hier = {mem::CacheGeometry(4096, 16, 1),
                 mem::CacheGeometry(65536, 16, 16), true};
    core::SchemeSpec naive, mru;
    naive.kind = core::SchemeKind::Naive;
    mru.kind = core::SchemeKind::Mru;
    spec.schemes = {naive, mru, core::SchemeSpec::paperPartial(16)};
    spec.with_distances = true;
    CancelToken cancel;
    MemBudget budget(std::uint64_t(1) << 30);
    if (guarded) {
        spec.cancel = &cancel;
        spec.budget = &budget;
    }
    AllocCounter c;
    sim::RunOutput out = sim::runTrace(src, spec);
    const std::uint64_t count = c.count();
    EXPECT_EQ(out.stats.proc_refs + out.stats.flushes, n);
    return count;
}

TEST(AllocFree, RunTraceAllocationsDoNotGrowWithTheTrace)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 2;
    cfg.refs_per_segment = 40000;
    trace::AtumLikeGenerator gen(cfg);
    const std::vector<trace::MemRef> refs = trace::materialize(gen);
    const std::size_t n = refs.size() / 2;
    // The first run in a process also pays one-time set-up, such as
    // the kernel dispatch; keep it out of the comparison.
    runTraceAllocations(refs, n, false);
    for (bool guarded : {false, true}) {
        const std::uint64_t at_n = runTraceAllocations(refs, n, guarded);
        const std::uint64_t at_2n =
            runTraceAllocations(refs, 2 * n, guarded);
        EXPECT_EQ(at_n, at_2n) << (guarded ? "guarded" : "unguarded");
        EXPECT_GT(at_n, 0u); // the set-up is counted
    }
}

/** A mixed request stream after prefill, through the overload-safe
 *  path with admission on and no in-flight cap. */
TEST(AllocFree, SvcRequestsAllocateNothing)
{
    const mem::CacheGeometry geom(65536, 32, 8);
    svc::SvcConfig cfg;
    cfg.admission.enabled = true;
    cfg.admission.quota_burst = 64;
    cfg.admission.refill_num = 1;
    cfg.admission.refill_den = 1;
    cfg.admission.max_inflight = 0;
    Expected<std::unique_ptr<svc::CacheService>> made =
        svc::CacheService::create(geom, cfg);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<svc::CacheService> service = made.take();
    Expected<svc::Session *> opened = service->openSession();
    ASSERT_TRUE(opened.ok());
    svc::Session &s = *opened.value();

    const std::uint32_t capacity = geom.sets() * geom.assoc();
    for (std::uint32_t b = 0; b < capacity; ++b)
        s.fill(b, false);

    struct Op
    {
        svc::OpKind kind;
        mem::BlockAddr block;
        bool write;
    };
    std::vector<Op> ops(200000);
    Pcg32 rng(7, 0x5e55);
    for (Op &op : ops) {
        op.kind = rng.uniform() < 0.4 ? svc::OpKind::Probe
                                      : svc::OpKind::Access;
        op.write = op.kind == svc::OpKind::Access && rng.chance(0.5);
        // Twice the capacity: hits, misses, clean and dirty evictions.
        op.block = rng.below(2 * capacity);
    }

    std::uint64_t failed = 0;
    AllocCounter c;
    for (const Op &op : ops)
        failed += !s.request(op.kind, op.block, op.write).ok();
    EXPECT_EQ(c.count(), 0u);
    EXPECT_EQ(failed, 0u);
}

TEST(AllocFree, SynthesisAllocatesLittleAfterTheFirstBatch)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 4; // 1.4M references
    trace::AtumLikeGenerator gen(cfg);
    trace::MemRef buf[64];
    std::uint64_t n = gen.nextBatch(buf, 64);
    ASSERT_EQ(n, 64u);
    AllocCounter c;
    while (std::size_t got = gen.nextBatch(buf, 64))
        n += got;
    EXPECT_EQ(n, gen.totalRefs());
    // What remains is amortized vector growth in the process models.
    EXPECT_LT(c.count(), 1000u);
}

} // namespace
} // namespace assoc
