/**
 * @file
 * Batched trace replay must be a pure throughput optimization: how
 * references are pulled and prefetched never changes what any
 * counter says. TwoLevelHierarchy::run is held to a plain access()
 * loop, and sim::runTrace to the one-reference-at-a-time loop it
 * replaced, kept here as the oracle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "exec/journal.h"
#include "mem/coherency.h"
#include "mem/hierarchy.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace assoc {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 0xba7c4;
    cfg.segments = 2; // a flush marker lands mid-stream
    cfg.refs_per_segment = 15000;
    cfg.processes = 2;
    return cfg;
}

sim::RunSpec
meteredSpec()
{
    sim::RunSpec spec;
    spec.hier = {mem::CacheGeometry(4096, 16, 1),
                 mem::CacheGeometry(65536, 32, 4), true};
    spec.schemes = {
        core::SchemeSpec{core::SchemeKind::Traditional},
        core::SchemeSpec{core::SchemeKind::Naive},
        core::SchemeSpec{core::SchemeKind::Mru},
        core::SchemeSpec::paperPartial(4),
    };
    spec.with_distances = true;
    return spec;
}

/**
 * The per-reference loop sim::runTrace used whenever a token,
 * coherency rate or occupancy period was set: one next(), one
 * access(), one remote step, then the checkpoint and the sample.
 */
sim::RunOutput
oracleRunTrace(trace::TraceSource &src, const sim::RunSpec &spec)
{
    mem::TwoLevelHierarchy hier(spec.hier);
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    for (const core::SchemeSpec &scheme : spec.schemes) {
        meters.push_back(scheme.makeMeter(spec.wb_optimization));
        hier.addObserver(meters.back().get());
    }
    std::unique_ptr<core::MruDistanceMeter> dist;
    if (spec.with_distances) {
        dist = std::make_unique<core::MruDistanceMeter>(
            spec.hier.l2.assoc());
        hier.addObserver(dist.get());
    }

    sim::RunOutput out;
    mem::CoherencyTraffic remote(spec.coherency_rate);
    trace::MemRef r;
    src.reset();
    std::uint64_t n = 0;
    double occ_sum = 0.0;
    std::uint64_t occ_samples = 0;
    const CancelToken *cancel = spec.cancel;
    const std::uint64_t every =
        spec.checkpoint_every ? spec.checkpoint_every : 1;
    std::uint64_t until_checkpoint = every;
    if (cancel) {
        Expected<void> go = cancel->checkpoint();
        if (!go.ok())
            throwError(Error(go.error()).withContext("before streaming"));
    }
    while (src.next(r)) {
        hier.access(r);
        if (spec.coherency_rate > 0.0)
            remote.step(hier);
        ++n;
        if (cancel && --until_checkpoint == 0) {
            until_checkpoint = every;
            Expected<void> go = cancel->checkpoint();
            if (!go.ok())
                throwError(Error(go.error()).withContext(
                    "after " + std::to_string(n) + " accesses"));
        }
        if (spec.occupancy_sample_period != 0 &&
            n % spec.occupancy_sample_period == 0) {
            occ_sum += mem::l2ValidFraction(hier);
            ++occ_samples;
        }
    }
    if (occ_samples != 0)
        out.mean_occupancy = occ_sum / occ_samples;
    out.coherency_invalidations = remote.invalidations();

    throwIfFailed(src);
    out.skipped_records = src.skippedRecords();
    out.stats = hier.stats();
    for (const auto &meter : meters) {
        out.names.push_back(meter->name());
        out.probes.push_back(meter->stats());
    }
    if (dist) {
        out.f.assign(spec.hier.l2.assoc() + 1, 0.0);
        for (unsigned i = 1; i <= spec.hier.l2.assoc(); ++i)
            out.f[i] = dist->f(i);
    }
    return out;
}

/** Forwarding source that cancels @p token as record @p k is read. */
class TripAtSource : public trace::ForwardingTraceSource
{
  public:
    TripAtSource(trace::TraceSource &inner, CancelToken *token,
                 std::uint64_t k)
        : ForwardingTraceSource(inner), token_(token), k_(k)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (++count_ == k_)
            token_->cancel();
        return inner_.next(ref);
    }

    void
    reset() override
    {
        inner_.reset();
        count_ = 0;
    }

  private:
    CancelToken *token_;
    std::uint64_t k_;
    std::uint64_t count_ = 0;
};

/** The error a run stopped with (fails the test when none). */
template <typename Run>
Error
stopError(Run run)
{
    try {
        run();
    } catch (const ErrorException &e) {
        return e.error();
    }
    ADD_FAILURE() << "run did not stop";
    return Error();
}

TEST(BatchedReplay, RunTraceMatchesThePerReferenceLoop)
{
    CancelToken token; // never trips: exercises every checkpoint
    for (std::uint64_t every : {1ull, 7ull, 100ull, 4096ull}) {
        for (double rate : {0.0, 0.01}) {
            for (std::uint64_t period : {0ull, 333ull, 5000ull}) {
                SCOPED_TRACE("checkpoint_every=" + std::to_string(every) +
                             " coherency_rate=" + std::to_string(rate) +
                             " occupancy_sample_period=" +
                             std::to_string(period));
                sim::RunSpec spec = meteredSpec();
                spec.cancel = &token;
                spec.checkpoint_every = every;
                spec.coherency_rate = rate;
                spec.occupancy_sample_period = period;

                trace::AtumLikeGenerator a(smallTrace());
                sim::RunOutput want = oracleRunTrace(a, spec);
                trace::AtumLikeGenerator b(smallTrace());
                sim::RunOutput got = sim::runTrace(b, spec);
                EXPECT_EQ(1u, got.stats.flushes);
                EXPECT_EQ(rate > 0.0, got.coherency_invalidations > 0);
                EXPECT_EQ(period > 0, got.mean_occupancy > 0.0);
                EXPECT_EQ(exec::encodeRunOutput(want),
                          exec::encodeRunOutput(got));
            }
        }
    }
}

TEST(BatchedReplay, CancelStopsAtTheSameCheckpoint)
{
    // A token tripped while record k is read is honored at the first
    // checkpoint at or after access k: N = ceil(k / 100) * 100.
    for (std::uint64_t k : {1ull, 64ull, 65ull, 4097ull}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const std::string want =
            "after " + std::to_string((k + 99) / 100 * 100) +
            " accesses";
        for (bool oracle : {true, false}) {
            CancelToken token;
            sim::RunSpec spec = meteredSpec();
            spec.cancel = &token;
            spec.checkpoint_every = 100;
            trace::AtumLikeGenerator gen(smallTrace());
            TripAtSource src(gen, &token, k);
            Error e = stopError([&] {
                if (oracle)
                    oracleRunTrace(src, spec);
                else
                    sim::runTrace(src, spec);
            });
            EXPECT_EQ(ErrorCode::Cancelled, e.code());
            ASSERT_FALSE(e.context().empty());
            EXPECT_EQ(want, e.context().back())
                << (oracle ? "oracle" : "runTrace");
        }
    }
}

TEST(BatchedReplay, VectorSourceBatchesMatchSerialNext)
{
    Pcg32 rng(0xba7c5, 3);
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 1000; ++i) {
        trace::MemRef r;
        r.addr = rng.next();
        r.type = rng.below(4) == 0 ? trace::RefType::Write
                                   : trace::RefType::Read;
        refs.push_back(r);
    }

    trace::VectorTraceSource serial(refs);
    for (std::size_t batch : {1u, 4u, 16u, 64u, 7u}) {
        trace::VectorTraceSource batched(refs);
        serial.reset();
        std::vector<trace::MemRef> buf(batch);
        std::size_t total = 0;
        for (;;) {
            std::size_t n = batched.nextBatch(buf.data(), batch);
            if (n == 0)
                break;
            EXPECT_LE(n, batch);
            for (std::size_t i = 0; i < n; ++i) {
                trace::MemRef r;
                ASSERT_TRUE(serial.next(r));
                EXPECT_EQ(r.addr, buf[i].addr);
                EXPECT_EQ(r.type, buf[i].type);
            }
            total += n;
        }
        trace::MemRef r;
        EXPECT_FALSE(serial.next(r));
        EXPECT_EQ(refs.size(), total);
    }
}

TEST(BatchedReplay, HierarchyRunBatchedEqualsPerReference)
{
    // Drive the hierarchy directly (no runner) so the prefetching
    // replay loop itself is on trial, flush markers included.
    Pcg32 rng(0xba7c6, 4);
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 20000; ++i) {
        trace::MemRef r;
        if (i == 9000) {
            refs.push_back(trace::MemRef::flush());
            continue;
        }
        r.addr = (rng.next() & 0x3ffff);
        r.type = rng.below(3) == 0 ? trace::RefType::Write
                                   : trace::RefType::Read;
        refs.push_back(r);
    }
    trace::VectorTraceSource src(std::move(refs));

    mem::HierarchyConfig hc{mem::CacheGeometry(1024, 16, 1),
                            mem::CacheGeometry(16384, 32, 4), true};
    mem::TwoLevelHierarchy base(hc);
    for (const trace::MemRef &r : src.refs())
        base.access(r);

    for (unsigned batch : {4u, 16u, 64u}) {
        mem::TwoLevelHierarchy h(hc);
        h.run(src, batch);
        const mem::HierarchyStats &a = base.stats();
        const mem::HierarchyStats &b = h.stats();
        EXPECT_EQ(a.proc_refs, b.proc_refs) << "batch=" << batch;
        EXPECT_EQ(a.l1_misses, b.l1_misses) << "batch=" << batch;
        EXPECT_EQ(a.read_in_misses, b.read_in_misses)
            << "batch=" << batch;
        EXPECT_EQ(a.write_backs, b.write_backs) << "batch=" << batch;
        EXPECT_EQ(a.flushes, b.flushes) << "batch=" << batch;
    }
}

} // namespace
} // namespace assoc
