/**
 * @file
 * google-benchmark microbenchmarks: raw software cost of the
 * building blocks (lookup strategies, tag transforms, cache model,
 * trace generation). These measure the *simulator*, not the
 * hardware schemes — they guard the repository's own performance.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include <mutex>

#include "core/kernels.h"
#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/scheme.h"
#include "core/transform.h"
#include "core/way_memo.h"
#include "mem/hierarchy.h"
#include "sim/runner.h"
#include "svc/service.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"
#include "util/rng.h"

using namespace assoc;

namespace {

/** Random set fixture shared by the lookup benchmarks. */
struct BenchSet
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> order;
    std::uint32_t incoming;
    std::uint32_t block_addr;

    explicit BenchSet(unsigned a, Pcg32 &rng)
        : tags(a), valid(a, 1), order(a)
    {
        for (unsigned w = 0; w < a; ++w) {
            tags[w] = rng.next() & 0xffff;
            order[w] = static_cast<std::uint8_t>(w);
        }
        incoming = rng.chance(0.8) ? tags[rng.below(a)]
                                   : (rng.next() & 0xffff);
        // Address-indexed strategies (way memoization) key their
        // tables on the block address; a 12-bit space over 256
        // fixture sets gives a realistic mix of memo hits, misses
        // and tagged-entry conflicts.
        block_addr = rng.next() & 0xfff;
    }

    core::LookupInput
    input() const
    {
        core::LookupInput in;
        in.assoc = static_cast<unsigned>(tags.size());
        in.stored_tags = tags.data();
        in.valid = valid.data();
        in.mru_order = order.data();
        in.incoming_tag = incoming;
        in.block_addr = block_addr;
        in.set = block_addr & 255;
        return in;
    }
};

void
runLookup(benchmark::State &state, const core::LookupStrategy &strat)
{
    const unsigned a = static_cast<unsigned>(state.range(0));
    Pcg32 rng(1234);
    std::vector<BenchSet> sets;
    for (int i = 0; i < 256; ++i)
        sets.emplace_back(a, rng);
    std::size_t i = 0;
    for (auto _ : state) {
        core::LookupResult r = strat.lookup(sets[i & 255].input());
        benchmark::DoNotOptimize(r);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TraditionalLookup(benchmark::State &state)
{
    runLookup(state, core::TraditionalLookup{});
}

void
BM_NaiveLookup(benchmark::State &state)
{
    runLookup(state, core::NaiveLookup{});
}

void
BM_MruLookup(benchmark::State &state)
{
    runLookup(state, core::MruLookup{});
}

void
BM_PartialLookup(benchmark::State &state)
{
    core::SchemeSpec spec = core::SchemeSpec::paperPartial(
        static_cast<unsigned>(state.range(0)));
    core::PartialConfig cfg;
    cfg.tag_bits = spec.tag_bits;
    cfg.field_bits = spec.partial_k;
    cfg.subsets = spec.partial_subsets;
    cfg.transform = spec.transform;
    core::PartialLookup pl(cfg);
    runLookup(state, pl);
}

void
BM_WayMemoLookup(benchmark::State &state)
{
    // Software cost of the memo wrapper on top of its underlying
    // strategy: table index, entry check, and the fallback lookup.
    core::WayMemoConfig cfg;
    core::WayMemoLookup wm(
        std::make_unique<core::TraditionalLookup>(), cfg);
    runLookup(state, wm);
}

void
BM_WayPredictLookup(benchmark::State &state)
{
    runLookup(state, core::WayPredictLookup{});
}

BENCHMARK(BM_TraditionalLookup)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_NaiveLookup)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_MruLookup)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_PartialLookup)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_WayMemoLookup)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_WayPredictLookup)->Arg(4)->Arg(8)->Arg(16);

// -----------------------------------------------------------------
// Kernel sections: the raw dispatch-free cost of each registered
// ISA table (BM_Kernel*_scalar vs _swar vs _avx2 prices the vector
// win in isolation; the strategy benchmarks above price it through
// activeKernels()). Registered dynamically in main() because the
// set of tables is a runtime property of the machine.
// -----------------------------------------------------------------

void
runEqMask(benchmark::State &state, const core::LookupKernels &kern)
{
    const unsigned a = static_cast<unsigned>(state.range(0));
    Pcg32 rng(41);
    std::vector<BenchSet> sets;
    for (int i = 0; i < 256; ++i)
        sets.emplace_back(a, rng);
    std::size_t i = 0;
    for (auto _ : state) {
        const BenchSet &s = sets[i & 255];
        benchmark::DoNotOptimize(kern.eq_mask(
            s.tags.data(), s.valid.data(), a, s.incoming));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
runPartialMask(benchmark::State &state,
               const core::LookupKernels &kern)
{
    // One subset spanning the whole set, k sized so g*k fills the
    // 16-bit tag: (g, k) = (4,4), (8,2), (16,1).
    const unsigned g = static_cast<unsigned>(state.range(0));
    const unsigned k = 16 / g;
    auto xf =
        core::TagTransform::make(core::TransformKind::XorLow, 16, k);
    Pcg32 rng(42);
    std::vector<BenchSet> sets;
    std::vector<std::vector<std::uint32_t>> inc_fields;
    for (int i = 0; i < 256; ++i) {
        sets.emplace_back(g, rng);
        std::vector<std::uint32_t> inc(g);
        for (unsigned l = 0; l < g; ++l)
            inc[l] = xf->field(xf->apply(sets.back().incoming, l), l);
        inc_fields.push_back(std::move(inc));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const BenchSet &s = sets[i & 255];
        benchmark::DoNotOptimize(kern.partial_mask(
            s.tags.data(), s.valid.data(), g,
            inc_fields[i & 255].data(), k,
            core::TransformKind::XorLow, *xf));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
runPlaneDecode(benchmark::State &state,
               const core::LookupKernels &kern)
{
    // The snapshotSet() decode: shift a tag plane, expand a valid
    // bitmask and a packed recency word into per-way bytes.
    const unsigned a = static_cast<unsigned>(state.range(0));
    Pcg32 rng(43);
    std::vector<std::uint32_t> raw(a), tags(a);
    std::vector<std::uint8_t> valid(a), order(a);
    for (unsigned w = 0; w < a; ++w)
        raw[w] = rng.next();
    std::uint64_t vbits = rng.next64();
    std::uint64_t packed = rng.next64();
    for (auto _ : state) {
        kern.shift_tags(raw.data(), a, 13, tags.data());
        kern.expand_bits(vbits, a, valid.data());
        kern.expand_nibbles(packed, a, order.data());
        benchmark::DoNotOptimize(tags.data());
        benchmark::DoNotOptimize(valid.data());
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(state.iterations());
}

void
registerKernelBenchmarks()
{
    for (const core::LookupKernels *k : core::registeredKernels()) {
        const std::string suffix = std::string("_") + k->name;
        benchmark::RegisterBenchmark(
            ("BM_KernelEqMask" + suffix).c_str(),
            [k](benchmark::State &st) { runEqMask(st, *k); })
            ->Arg(4)
            ->Arg(8)
            ->Arg(16)
            ->Arg(64);
        benchmark::RegisterBenchmark(
            ("BM_KernelPartialMask" + suffix).c_str(),
            [k](benchmark::State &st) { runPartialMask(st, *k); })
            ->Arg(4)
            ->Arg(8)
            ->Arg(16);
        benchmark::RegisterBenchmark(
            ("BM_KernelPlaneDecode" + suffix).c_str(),
            [k](benchmark::State &st) { runPlaneDecode(st, *k); })
            ->Arg(16);
    }
}

void
BM_Transform(benchmark::State &state, core::TransformKind kind)
{
    auto xf = core::TagTransform::make(kind, 16, 4);
    Pcg32 rng(7);
    std::uint32_t tag = rng.next() & 0xffff;
    for (auto _ : state) {
        tag = xf->apply(tag ^ 1, 0);
        benchmark::DoNotOptimize(tag);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TransformXor(benchmark::State &state)
{
    BM_Transform(state, core::TransformKind::XorLow);
}

void
BM_TransformImproved(benchmark::State &state)
{
    BM_Transform(state, core::TransformKind::Improved);
}

void
BM_TransformSwap(benchmark::State &state)
{
    BM_Transform(state, core::TransformKind::Swap);
}

BENCHMARK(BM_TransformXor);
BENCHMARK(BM_TransformImproved);
BENCHMARK(BM_TransformSwap);

void
BM_CacheFindWay(benchmark::State &state)
{
    mem::WriteBackCache cache(
        mem::CacheGeometry(262144, 32, static_cast<std::uint32_t>(
                                           state.range(0))));
    Pcg32 rng(5);
    std::vector<mem::BlockAddr> blocks;
    for (int i = 0; i < 4096; ++i) {
        mem::BlockAddr b = rng.next() & 0xffff;
        if (cache.findWay(b) < 0)
            cache.fill(b, false);
        blocks.push_back(b);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.findWay(blocks[i & 4095]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CacheFindWay)->Arg(1)->Arg(4)->Arg(16);

void
BM_CacheFillEvict(benchmark::State &state)
{
    mem::WriteBackCache cache(mem::CacheGeometry(65536, 32, 4));
    Pcg32 rng(6);
    for (auto _ : state) {
        mem::BlockAddr b = rng.next() & 0xfffff;
        int way = cache.findWay(b);
        if (way >= 0)
            cache.touch(cache.geom().setOf(b), way);
        else
            benchmark::DoNotOptimize(cache.fill(b, false));
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CacheFillEvict);

void
BM_CacheTouch(benchmark::State &state)
{
    mem::WriteBackCache cache(
        mem::CacheGeometry(262144, 32, static_cast<std::uint32_t>(
                                           state.range(0))));
    const unsigned a = cache.geom().assoc();
    Pcg32 rng(8);
    // Fully warm one stretch of sets so touch() always promotes a
    // valid way through the packed recency word.
    for (std::uint32_t set = 0; set < 256; ++set)
        for (unsigned w = 0; w < a; ++w)
            cache.fill(static_cast<mem::BlockAddr>(
                           set + (w + 1) * cache.geom().sets()),
                       false);
    std::size_t i = 0;
    for (auto _ : state) {
        cache.touch(static_cast<std::uint32_t>(i & 255),
                    static_cast<unsigned>(rng.below(a)));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CacheTouch)->Arg(4)->Arg(16);

void
BM_CacheSnapshotSet(benchmark::State &state)
{
    mem::WriteBackCache cache(
        mem::CacheGeometry(262144, 32, static_cast<std::uint32_t>(
                                           state.range(0))));
    const unsigned a = cache.geom().assoc();
    for (unsigned w = 0; w < a; ++w)
        cache.fill(static_cast<mem::BlockAddr>(
                       (w + 1) * cache.geom().sets()),
                   false);
    std::vector<std::uint32_t> tags(a);
    std::vector<std::uint8_t> valid(a);
    std::vector<std::uint8_t> order(a);
    for (auto _ : state) {
        cache.snapshotSet(0, tags.data(), valid.data(), order.data());
        benchmark::DoNotOptimize(tags.data());
        benchmark::DoNotOptimize(valid.data());
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CacheSnapshotSet)->Arg(4)->Arg(16);

void
BM_TraceGeneration(benchmark::State &state)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 1;
    cfg.refs_per_segment = 100000;
    trace::AtumLikeGenerator gen(cfg);
    trace::MemRef r;
    for (auto _ : state) {
        if (!gen.next(r))
            gen.reset();
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TraceGeneration);

/** 100k AtumLike references materialized once, replayed from memory
 *  so the hierarchy benchmarks time the hierarchy, not the trace
 *  generator (BM_TraceGeneration prices that separately). */
const trace::VectorTraceSource::Buffer &
replayRefs()
{
    static const trace::VectorTraceSource::Buffer refs = [] {
        trace::AtumLikeConfig cfg;
        cfg.segments = 1;
        cfg.refs_per_segment = 100000;
        trace::AtumLikeGenerator gen(cfg);
        return std::make_shared<const std::vector<trace::MemRef>>(
            trace::materialize(gen, gen.totalRefs()));
    }();
    return refs;
}

void
BM_HierarchySimulation(benchmark::State &state)
{
    const std::vector<trace::MemRef> &refs = *replayRefs();
    mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, 4),
                              true};
    mem::TwoLevelHierarchy hier(hcfg);
    std::size_t i = 0;
    for (auto _ : state) {
        hier.access(refs[i]);
        if (++i == refs.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HierarchySimulation);

void
BM_HierarchyWithMeters(benchmark::State &state)
{
    const std::vector<trace::MemRef> &refs = *replayRefs();
    mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, 4),
                              true};
    mem::TwoLevelHierarchy hier(hcfg);
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    core::SchemeSpec naive, mru;
    naive.kind = core::SchemeKind::Naive;
    mru.kind = core::SchemeKind::Mru;
    for (const core::SchemeSpec &s :
         {naive, mru, core::SchemeSpec::paperPartial(4)}) {
        meters.push_back(s.makeMeter());
        hier.addObserver(meters.back().get());
    }
    std::size_t i = 0;
    for (auto _ : state) {
        hier.access(refs[i]);
        if (++i == refs.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HierarchyWithMeters);

void
BM_HierarchyBatchedReplay(benchmark::State &state)
{
    // Whole-trace replay through TwoLevelHierarchy::run at a given
    // pull size (1 = one reference per nextBatch call, so nothing is
    // prefetched; 64 = kReplayBatch, the pull every run uses).
    trace::VectorTraceSource src(replayRefs());
    mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, 4),
                              true};
    const unsigned batch = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        mem::TwoLevelHierarchy hier(hcfg);
        hier.run(src, batch);
        benchmark::DoNotOptimize(hier.stats().proc_refs);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(src.size()));
}

BENCHMARK(BM_HierarchyBatchedReplay)
    ->Arg(1)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_EndToEndTrace(benchmark::State &state)
{
    // The full experiment pipeline a bench_* table regeneration
    // runs: trace synthesis + hierarchy + three metered schemes per
    // iteration, via the same sim::runTrace entry point.
    trace::AtumLikeConfig cfg;
    cfg.segments = 1;
    cfg.refs_per_segment = 100000;
    trace::AtumLikeGenerator gen(cfg);
    sim::RunSpec spec;
    core::SchemeSpec naive, mru;
    naive.kind = core::SchemeKind::Naive;
    mru.kind = core::SchemeKind::Mru;
    spec.schemes = {naive, mru, core::SchemeSpec::paperPartial(4)};
    for (auto _ : state) {
        sim::RunOutput out = sim::runTrace(gen, spec);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() *
                            cfg.refs_per_segment);
}

BENCHMARK(BM_EndToEndTrace)->Unit(benchmark::kMillisecond);

/**
 * Shared fixture for the concurrent-service benchmarks: one
 * CacheService with a session per benchmark thread, rebuilt when
 * the thread count changes. Whichever thread arrives first builds
 * it (google-benchmark's start barrier then lines everyone up
 * before the timed loop).
 */
struct SvcFixture
{
    // 64K / 32B / 8-way = 2048 lines; probes draw from a prefilled
    // working set (hits, the seqlock fast path), accesses from 4x
    // capacity (misses + evictions under the stripe locks).
    static constexpr std::uint32_t kLines = 2048;
    static constexpr std::uint32_t kAccessSpace = 4 * kLines;

    std::mutex mu;
    std::unique_ptr<svc::CacheService> service;
    std::vector<svc::Session *> sessions;

    svc::Session *
    sessionFor(unsigned threads, unsigned index)
    {
        std::lock_guard<std::mutex> g(mu);
        if (!service || sessions.size() != threads) {
            Expected<std::unique_ptr<svc::CacheService>> e =
                svc::CacheService::create(
                    mem::CacheGeometry(65536, 32, 8));
            if (!e.ok())
                throw std::runtime_error(e.error().message());
            service = e.take();
            sessions.clear();
            for (unsigned t = 0; t < threads; ++t) {
                Expected<svc::Session *> s =
                    service->openSession();
                if (!s.ok())
                    throw std::runtime_error(s.error().message());
                sessions.push_back(s.take());
            }
            for (std::uint32_t b = 0; b < kLines; ++b)
                sessions[0]->fill(b, false);
        }
        return sessions[index];
    }
};

SvcFixture &
svcProbeFixture()
{
    static SvcFixture fx;
    return fx;
}

SvcFixture &
svcAccessFixture()
{
    static SvcFixture fx;
    return fx;
}

void
BM_SvcProbe(benchmark::State &state)
{
    // Read-only lookups on a prefilled service: every probe rides
    // the optimistic seqlock path, no stripe lock taken.
    svc::Session *session = svcProbeFixture().sessionFor(
        static_cast<unsigned>(state.threads()),
        static_cast<unsigned>(state.thread_index()));
    Pcg32 rng(0x9e0b, 7 + state.thread_index());
    for (auto _ : state) {
        svc::OpResult r =
            session->probe(rng.below(SvcFixture::kLines));
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SvcProbe)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void
BM_SvcAccess(benchmark::State &state)
{
    // The classic service op (lookup, fill on miss) over 4x the
    // cache capacity: stripe locks, MRU promotion, evictions.
    svc::Session *session = svcAccessFixture().sessionFor(
        static_cast<unsigned>(state.threads()),
        static_cast<unsigned>(state.thread_index()));
    Pcg32 rng(0xacce, 7 + state.thread_index());
    for (auto _ : state) {
        std::uint32_t b = rng.below(SvcFixture::kAccessSpace);
        svc::OpResult r = session->access(b, (b & 7) == 0);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SvcAccess)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    registerKernelBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
