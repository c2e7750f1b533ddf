#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "check/svc_check.h"
#include "svc/service.h"
#include "util/cancel.h"

namespace {

using namespace assoc;
using svc::CacheService;
using svc::OpKind;
using svc::Session;
using svc::SvcConfig;
using svc::TenantStats;

std::unique_ptr<CacheService>
makeService(const mem::CacheGeometry &geom,
            const SvcConfig &cfg = {}, MemBudget *budget = nullptr)
{
    Expected<std::unique_ptr<CacheService>> e =
        CacheService::create(geom, cfg, budget);
    if (!e.ok())
        throw std::runtime_error("create failed: " +
                                 e.error().message());
    return e.take();
}

Session *
openSession(CacheService &service, const std::string &name = "")
{
    Expected<Session *> s = service.openSession(name);
    if (!s.ok())
        throw std::runtime_error("openSession failed: " +
                                 s.error().message());
    return s.take();
}

TEST(TenantStats, RecordsPerKindOutcomes)
{
    auto service = makeService(mem::CacheGeometry(1024, 16, 2));
    Session *s = openSession(*service);

    s->probe(0x1);            // miss
    s->access(0x1, false);    // miss + fill
    s->probe(0x1);            // hit
    s->lookup(0x1);           // hit
    s->fill(0x1, true);       // merge-hit
    s->invalidate(0x1);       // hit
    s->invalidate(0x1);       // miss

    const TenantStats &st = s->stats();
    EXPECT_EQ(st.ops, 7u);
    EXPECT_EQ(st.probe_ops, 2u);
    EXPECT_EQ(st.probe_hits, 1u);
    EXPECT_EQ(st.accesses, 1u);
    EXPECT_EQ(st.access_hits, 0u);
    EXPECT_EQ(st.lookups, 1u);
    EXPECT_EQ(st.lookup_hits, 1u);
    EXPECT_EQ(st.fills, 1u);
    EXPECT_EQ(st.fill_hits, 1u);
    EXPECT_EQ(st.invalidates, 2u);
    EXPECT_EQ(st.invalidate_hits, 1u);
    EXPECT_EQ(st.hits(), 4u);
    EXPECT_EQ(st.hit_probes.count() + st.miss_probes.count(),
              st.ops);
}

TEST(TenantStats, MergeIsExactSum)
{
    TenantStats a, b;
    svc::OpResult hit;
    hit.kind = OpKind::Lookup;
    hit.hit = true;
    hit.probes = 2;
    svc::OpResult miss;
    miss.kind = OpKind::Access;
    miss.probes = 4;
    miss.mutated = true;
    miss.filled = true;
    miss.evicted = true;
    miss.victim_dirty = true;

    a.recordOp(hit);
    a.recordOp(miss);
    b.recordOp(hit);

    TenantStats total;
    mergeStats(total, a);
    mergeStats(total, b);
    EXPECT_EQ(total.ops, 3u);
    EXPECT_EQ(total.lookup_hits, 2u);
    EXPECT_EQ(total.evictions, 1u);
    EXPECT_EQ(total.dirty_evictions, 1u);
    EXPECT_EQ(total.hit_probes.sum(), 4.0);
    EXPECT_EQ(total.miss_probes.sum(), 4.0);

    // Merge order cannot matter: these sums are exact.
    TenantStats flipped;
    mergeStats(flipped, b);
    mergeStats(flipped, a);
    EXPECT_TRUE(identicalStats(total, flipped));
}

TEST(TenantStats, IdenticalOutcomesIgnoresProtocolCounters)
{
    TenantStats a, b;
    svc::OpResult r;
    r.kind = OpKind::Probe;
    r.hit = true;
    r.probes = 1;
    r.optimistic = true;
    a.recordOp(r);
    r.optimistic = false; // same outcome, served under the lock
    r.retries = 5;
    b.recordOp(r);

    EXPECT_TRUE(identicalStats(a, b));
    EXPECT_NE(a.optimistic_reads, b.optimistic_reads);
    EXPECT_NE(a.seqlock_retries, b.seqlock_retries);
}

TEST(TenantStats, ExportsProbeMeterCurrency)
{
    TenantStats st;
    svc::OpResult hit;
    hit.kind = OpKind::Access;
    hit.hit = true;
    hit.probes = 3;
    hit.mutated = true;
    svc::OpResult evict;
    evict.kind = OpKind::Access;
    evict.probes = 4;
    evict.mutated = true;
    evict.filled = true;
    evict.evicted = true;
    evict.victim_dirty = true;
    st.recordOp(hit);
    st.recordOp(evict);

    core::ProbeStats ps = st.toProbeStats();
    EXPECT_EQ(ps.read_in_hits.count(), 1u);
    EXPECT_EQ(ps.read_in_hits.sum(), 3.0);
    EXPECT_EQ(ps.read_in_misses.count(), 1u);
    EXPECT_EQ(ps.read_in_misses.sum(), 4.0);
    // Dirty evictions become zero-probe write-backs (the paper's
    // write-back optimization).
    EXPECT_EQ(ps.write_backs.count(), 1u);
    EXPECT_EQ(ps.write_backs.sum(), 0.0);
}

TEST(Service, SessionShardsChargeTheBudget)
{
    MemBudget budget(1 << 22);
    SvcConfig cfg;
    cfg.record_history = true;
    cfg.history_capacity = 1024;
    auto service =
        makeService(mem::CacheGeometry(1024, 16, 2), cfg, &budget);
    std::uint64_t engine_only = budget.used();
    openSession(*service);
    EXPECT_GT(budget.used(), engine_only);
    EXPECT_GE(budget.used() - engine_only,
              1024 * sizeof(svc::HistoryEvent));
}

TEST(Service, TenantSaltSeparatesAddressSpaces)
{
    SvcConfig cfg;
    cfg.tenant_salt_bits = 4;
    auto service =
        makeService(mem::CacheGeometry(1024, 16, 2), cfg);
    Session *t0 = openSession(*service);
    Session *t1 = openSession(*service);

    // Same block id, different tenants: distinct engine blocks in
    // the same set.
    EXPECT_NE(t0->saltedBlock(0x5), t1->saltedBlock(0x5));
    EXPECT_EQ(service->geom().setOf(t0->saltedBlock(0x5)),
              service->geom().setOf(t1->saltedBlock(0x5)));

    t0->access(0x5, true);
    EXPECT_FALSE(t1->probe(0x5).hit); // t1 cannot see t0's block
    EXPECT_TRUE(t0->probe(0x5).hit);
}

TEST(Service, SaltWiderThanTagIsRejected)
{
    SvcConfig cfg;
    cfg.tenant_salt_bits = 40;
    Expected<std::unique_ptr<CacheService>> e =
        CacheService::create(mem::CacheGeometry(1024, 16, 2), cfg);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code(), ErrorCode::Usage);
}

// The satellite determinism test: an N-thread replay of one op
// stream partitioned disjoint-by-set must merge to totals that are
// bit-for-bit identical to the single-thread run.
TEST(Service, PartitionedReplayMergesBitForBit)
{
    const mem::CacheGeometry geom(2048, 16, 4);
    constexpr unsigned kThreads = 4;

    // A deterministic mixed op stream.
    check::SvcFuzzCase c;
    c.case_seed = 0xfeed5eed;
    c.geom = geom;
    c.ops_per_thread = 30000;
    c.block_space = 512;
    std::vector<check::SvcOpSpec> ops = svcOpStream(c, 0);

    auto serial = makeService(geom);
    Session *one = openSession(*serial);
    for (const check::SvcOpSpec &op : ops)
        one->apply(op.kind, op.block, op.is_write);

    auto parallel = makeService(geom);
    std::vector<Session *> sessions;
    for (unsigned t = 0; t < kThreads; ++t)
        sessions.push_back(openSession(*parallel));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            for (const check::SvcOpSpec &op : ops)
                if (geom.setOf(op.block) % kThreads == t)
                    sessions[t]->apply(op.kind, op.block,
                                       op.is_write);
        });
    }
    for (std::thread &w : workers)
        w.join();

    TenantStats serial_total = serial->totalStats();
    TenantStats merged = parallel->totalStats();
    EXPECT_TRUE(identicalStats(merged, serial_total));
    EXPECT_EQ(merged.ops, serial_total.ops);
    check::ViolationLog log;
    check::checkStatsMerge(merged, serial_total, log);
    EXPECT_TRUE(log.ok());
}

} // namespace
