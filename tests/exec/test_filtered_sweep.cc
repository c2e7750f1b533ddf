/**
 * @file
 * Simulate each level one once: a sweep over a shared trace filters
 * every level one that two or more decoupled jobs share into a
 * request stream, and those jobs replay only its level-two requests
 * (sim::runTrace's filtered replay). Every output must equal a plain
 * runTrace() loop's, byte for byte, across level-one shapes, level-
 * two policies, meters, segments and worker counts. Coupled specs,
 * a budget that refuses the streams and a resume that leaves one
 * job of a level one run in lockstep and match too; runaway faults
 * on a filtered job behave as on a lockstep one, and a stream that
 * does not match its trace fails with an Internal error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "check/invariants.h"
#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

trace::AtumLikeConfig
traceConfig(unsigned segments, bool flush)
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 2626;
    cfg.segments = segments;
    cfg.refs_per_segment = 3000;
    cfg.flush_between_segments = flush;
    return cfg;
}

/** A 4K-16 level one of @p l1_assoc ways over a 64K-32 level two. */
sim::RunSpec
spec(unsigned l1_assoc, unsigned l2_assoc)
{
    sim::RunSpec s;
    s.hier = mem::HierarchyConfig{
        mem::CacheGeometry(4096, 16, l1_assoc),
        mem::CacheGeometry(65536, 32, l2_assoc), true};
    core::SchemeSpec naive, mru;
    naive.kind = core::SchemeKind::Naive;
    mru.kind = core::SchemeKind::Mru;
    s.schemes = {naive, mru, core::SchemeSpec::paperPartial(l2_assoc)};
    return s;
}

/** Every job streaming its own generator through runTrace(). */
std::vector<std::string>
plainOutputs(const std::vector<sim::RunSpec> &specs,
             const trace::AtumLikeConfig &tcfg)
{
    std::vector<std::string> enc;
    for (const sim::RunSpec &s : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        enc.push_back(encodeRunOutput(sim::runTrace(gen, s)));
    }
    return enc;
}

void
expectOutputs(const SweepResult &run,
              const std::vector<std::string> &want,
              const std::string &where)
{
    ASSERT_EQ(run.jobs.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(run.jobs[i].ok())
            << where << " job " << i << ": "
            << run.jobs[i].error.text();
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i])
            << where << " job " << i << " diverged from runTrace()";
    }
}

std::uint64_t
traceBytes(const trace::AtumLikeConfig &cfg)
{
    return trace::AtumLikeGenerator(cfg).totalRefs() *
           sizeof(trace::MemRef);
}

std::uint64_t
maxFootprint(const std::vector<sim::RunSpec> &specs)
{
    std::uint64_t hi = 0;
    for (const sim::RunSpec &s : specs)
        hi = std::max(hi,
                      mem::TwoLevelHierarchy(s.hier).footprintBytes());
    return hi;
}

TEST(FilteredSweep, MatchesRunTraceAcrossTheMatrix)
{
    // Level ones of 1, 2 and 4 ways; every level-two policy; both
    // allocate_on_wb_miss and wb_optimization settings. Distances,
    // an auditor and occupancy sampling ride on some of the specs.
    const mem::ReplPolicy policies[] = {
        mem::ReplPolicy::Lru, mem::ReplPolicy::Fifo,
        mem::ReplPolicy::Random, mem::ReplPolicy::TreePlru};
    std::vector<sim::RunSpec> specs;
    for (unsigned l1_assoc : {1u, 2u, 4u})
        for (mem::ReplPolicy policy : policies)
            for (int knobs = 0; knobs < 4; ++knobs) {
                sim::RunSpec s = spec(l1_assoc, knobs % 2 ? 4 : 8);
                s.hier.l2_replacement = policy;
                s.hier.allocate_on_wb_miss = (knobs & 1) == 0;
                s.wb_optimization = (knobs & 2) == 0;
                s.with_distances = knobs == 1;
                s.occupancy_sample_period = knobs == 2 ? 1000 : 0;
                specs.push_back(s);
            }
    // One auditor per spec: a job's auditor is never shared.
    std::vector<check::ViolationLog> logs(specs.size());
    std::vector<std::unique_ptr<check::InvariantAuditor>> auditors;
    for (std::size_t i = 0; i < specs.size(); i += 3) {
        auditors.push_back(
            std::make_unique<check::InvariantAuditor>(&logs[i]));
        specs[i].auditor = auditors.back().get();
    }

    struct Shape
    {
        unsigned segments;
        bool flush;
    };
    for (Shape shape : {Shape{1, true}, Shape{3, true}, Shape{3, false}}) {
        const trace::AtumLikeConfig tcfg =
            traceConfig(shape.segments, shape.flush);
        const std::vector<std::string> want = plainOutputs(specs, tcfg);
        for (unsigned jobs : {1u, 2u, 4u}) {
            const std::string where =
                std::to_string(shape.segments) + " segments, flush " +
                std::to_string(shape.flush) + ", jobs " +
                std::to_string(jobs);
            SweepOptions opts;
            opts.jobs = jobs;
            SweepResult run = runSweepChecked(specs, tcfg, opts);
            EXPECT_EQ(run.shared_trace_bytes, traceBytes(tcfg)) << where;
            EXPECT_GT(run.request_stream_bytes, 0u) << where;
            expectOutputs(run, want, where);
            for (std::size_t i = 0; i < specs.size(); ++i)
                EXPECT_TRUE(run.jobs[i].filtered)
                    << where << " job " << i << " ran its level one";
        }
    }
    for (std::size_t i = 0; i < specs.size(); i += 3) {
        EXPECT_TRUE(logs[i].ok()) << "spec " << i << ": "
                                  << logs[i].messages().front();
        EXPECT_GT(auditors[i / 3]->audited(), 0u);
    }
}

TEST(FilteredSweep, CoupledSpecsInTheSameSweepRunInLockstep)
{
    // Inclusion, coherency traffic and a write-through level one
    // each reach back into the level one: those jobs run it, and
    // their siblings on the same level one replay its stream.
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u})
        specs.push_back(spec(1, a));
    sim::RunSpec inclusive = spec(1, 4);
    inclusive.hier.enforce_inclusion = true;
    sim::RunSpec coherent = spec(1, 4);
    coherent.coherency_rate = 0.01;
    coherent.occupancy_sample_period = 500;
    sim::RunSpec through = spec(1, 4);
    through.hier.write_policy = mem::L1WritePolicy::WriteThrough;
    specs.insert(specs.begin() + 1, inclusive);
    specs.push_back(coherent);
    specs.push_back(through);
    const std::vector<bool> coupled = {false, true, false,
                                       false, true, true};

    const trace::AtumLikeConfig tcfg = traceConfig(3, true);
    const std::vector<std::string> want = plainOutputs(specs, tcfg);
    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepResult run = runSweepChecked(specs, tcfg, opts);
        expectOutputs(run, want, "jobs " + std::to_string(jobs));
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(run.jobs[i].filtered, !coupled[i]) << "job " << i;
    }
}

TEST(FilteredSweep, ABudgetThatRefusesTheStreamsRunsLockstep)
{
    // One level one: its stream is the only thing filtering charges.
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u, 16u})
        specs.push_back(spec(1, a));
    const trace::AtumLikeConfig tcfg = traceConfig(3, true);
    const std::vector<std::string> want = plainOutputs(specs, tcfg);

    SweepOptions opts;
    opts.jobs = 2;
    const std::uint64_t stream =
        runSweepChecked(specs, tcfg, opts).request_stream_bytes;
    // Room for the trace and two concurrent hierarchies only. The
    // stream would fit in that room, but the sweep keeps it for the
    // jobs while it filters: the stream is refused, and no job runs
    // out of budget.
    const std::uint64_t room = 2 * maxFootprint(specs);
    ASSERT_LT(stream, room) << "the stream must fit the jobs' room";
    opts.mem_budget = traceBytes(tcfg) + room;
    SweepResult run = runSweepChecked(specs, tcfg, opts);
    EXPECT_EQ(run.shared_trace_bytes, traceBytes(tcfg));
    EXPECT_EQ(run.request_stream_bytes, 0u);
    expectOutputs(run, want, "refused stream");
    for (const JobResult &j : run.jobs)
        EXPECT_FALSE(j.filtered);

    // With room for the stream as well, the same jobs replay it.
    opts.mem_budget = traceBytes(tcfg) + stream + room;
    SweepResult roomy = runSweepChecked(specs, tcfg, opts);
    EXPECT_EQ(roomy.request_stream_bytes, stream);
    expectOutputs(roomy, want, "admitted stream");
    for (const JobResult &j : roomy.jobs)
        EXPECT_TRUE(j.filtered);
}

TEST(FilteredSweep, ResumeLeavingOneJobOfALevelOneRunsItInLockstep)
{
    // Level ones A (direct-mapped) and B (2-way), interleaved. The
    // first run completes job 0 and is cancelled; the resume has A's
    // job 2 alone and B's three jobs left.
    std::vector<sim::RunSpec> specs = {spec(1, 4), spec(2, 4),
                                       spec(1, 8), spec(2, 8),
                                       spec(2, 16)};
    const trace::AtumLikeConfig tcfg = traceConfig(2, true);
    const std::vector<std::string> want = plainOutputs(specs, tcfg);
    const std::string journal =
        ::testing::TempDir() + "filtered_sweep_resume.journal";
    std::remove(journal.c_str());
    const std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    CancelToken cancel;
    FaultPlan plan;
    plan.cancel_after = 1;
    FaultInjector inject(plan, &cancel);
    SweepOptions opt1;
    opt1.jobs = 1;
    opt1.inject = &inject;
    opt1.cancel = &cancel;
    opt1.journal_path = journal;
    opt1.spec_hash = hash;
    SweepResult first = runSweepChecked(specs, tcfg, opt1);
    ASSERT_TRUE(first.jobs[0].ok()) << first.jobs[0].error.text();
    ASSERT_EQ(first.cancelled(), specs.size() - 1);

    SweepOptions opt2;
    opt2.jobs = 2;
    opt2.resume_path = journal;
    opt2.spec_hash = hash;
    SweepResult second = runSweepChecked(specs, tcfg, opt2);
    EXPECT_EQ(second.resumed, 1u);
    EXPECT_EQ(second.shared_trace_bytes, traceBytes(tcfg));
    expectOutputs(second, want, "resumed");
    const std::vector<bool> filtered = {false, true, false, true, true};
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(second.jobs[i].filtered, filtered[i]) << "job " << i;
    std::remove(journal.c_str());
}

TEST(FilteredSweep, RunawayFaultsOnAFilteredJobBehaveAsInLockstep)
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u})
        specs.push_back(spec(1, a));
    const trace::AtumLikeConfig tcfg = traceConfig(2, true);
    const std::vector<std::string> want = plainOutputs(specs, tcfg);
    const std::size_t bad = 1;

    auto sweep = [&](RunawayKind kind, SweepOptions opts) -> SweepResult {
        FaultPlan plan;
        plan.seed = 9;
        plan.runaway = kind;
        plan.runaway_job = static_cast<std::int64_t>(bad);
        plan.runaway_at = 700;
        plan.oom_bytes = 64ull << 20;
        FaultInjector inject(plan);
        opts.inject = &inject;
        opts.watchdog.log = false;
        SweepResult run = runSweepChecked(specs, tcfg, opts);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (i == bad && kind != RunawayKind::Slow)
                continue;
            EXPECT_TRUE(run.jobs[i].filtered) << "job " << i;
            EXPECT_TRUE(run.jobs[i].ok()) << run.jobs[i].error.text();
            if (run.jobs[i].ok()) {
                EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
            }
        }
        return run;
    };

    SweepOptions hang;
    hang.jobs = 2;
    hang.max_retries = 0;
    hang.job_timeout_ns = 50ull * 1000 * 1000;
    hang.watchdog.sample_ns = 1000 * 1000;
    SweepResult hung = sweep(RunawayKind::Hang, hang);
    EXPECT_EQ(hung.jobs[bad].status, JobStatus::TimedOut);
    EXPECT_EQ(hung.jobs[bad].attempts, 1u);

    SweepOptions slow;
    slow.jobs = 2;
    slow.job_timeout_ns = 10ull * 1000 * 1000 * 1000;
    SweepResult slowed = sweep(RunawayKind::Slow, slow);
    EXPECT_TRUE(slowed.allOk()) << slowed.firstError().text();
    EXPECT_TRUE(slowed.stalls.empty());

    SweepOptions oom;
    oom.jobs = 2;
    oom.job_mem_budget = 4ull << 20;
    SweepResult ballooned = sweep(RunawayKind::Oom, oom);
    EXPECT_EQ(ballooned.jobs[bad].status, JobStatus::OverBudget);
    EXPECT_EQ(ballooned.jobs[bad].attempts, 1u);
}

TEST(FilteredSweep, CancelledSweepFiltersNothing)
{
    std::vector<sim::RunSpec> specs = {spec(1, 4), spec(1, 8)};
    CancelToken cancel;
    cancel.cancel();
    SweepOptions opts;
    opts.jobs = 2;
    opts.cancel = &cancel;
    SweepResult run = runSweepChecked(specs, traceConfig(2, true), opts);
    EXPECT_EQ(run.request_stream_bytes, 0u);
    EXPECT_EQ(run.cancelled(), specs.size());
}

/** The requests a write-back level one @p l1 yields over @p refs. */
mem::L2RequestStream
requestsOf(const mem::CacheGeometry &l1,
         const std::vector<trace::MemRef> &refs)
{
    mem::LevelOne level_one(l1, mem::L1WritePolicy::WriteBack);
    mem::L2RequestStream stream(1);
    stream[0].reserve(2 * refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        level_one.access(refs[i], static_cast<std::uint32_t>(i),
                        stream[0]);
    return stream;
}

TEST(FilteredReplay, AStreamThatDoesNotMatchItsTraceFailsInternal)
{
    const trace::AtumLikeConfig tcfg = traceConfig(2, true);
    trace::AtumLikeGenerator gen(tcfg);
    const std::vector<trace::MemRef> refs = trace::materialize(gen);
    const sim::RunSpec s = spec(1, 4);
    const mem::L2RequestStream stream = requestsOf(s.hier.l1, refs);

    trace::VectorTraceSource same(refs);
    trace::VectorTraceSource plain(refs);
    EXPECT_EQ(encodeRunOutput(sim::runTrace(same, s, stream)),
              encodeRunOutput(sim::runTrace(plain, s)));

    auto expectInternal = [&](trace::TraceSource &src,
                              const sim::RunSpec &rs,
                              const mem::L2RequestStream &reqs,
                              const std::string &what) {
        try {
            sim::runTrace(src, rs, reqs);
            ADD_FAILURE() << what << ": no error";
        } catch (const ErrorException &e) {
            EXPECT_EQ(e.error().code(), ErrorCode::Internal)
                << what << ": " << e.error().text();
        }
    };

    // Another trace: the first read-in names another block.
    trace::AtumLikeConfig other_cfg = tcfg;
    other_cfg.seed = tcfg.seed + 1;
    trace::AtumLikeGenerator other(other_cfg);
    expectInternal(other, s, stream, "another trace");

    // The trace without its flush marker.
    std::vector<trace::MemRef> unflushed;
    for (const trace::MemRef &r : refs)
        if (!r.isFlush())
            unflushed.push_back(r);
    trace::VectorTraceSource no_flush(unflushed);
    expectInternal(no_flush, s, stream, "missing flush marker");

    // A trace that stops early leaves requests over.
    std::vector<trace::MemRef> prefix(refs.begin(),
                                      refs.begin() + refs.size() / 2);
    trace::VectorTraceSource shorter(prefix);
    expectInternal(shorter, s, stream, "shorter trace");

    // A level one of another block size reads in other blocks.
    trace::VectorTraceSource again(refs);
    sim::RunSpec wide = s;
    wide.hier.l1 = mem::CacheGeometry(4096, 32, 1);
    expectInternal(again, wide, stream, "another level one");

    // A spec whose level one is coupled to its level two.
    sim::RunSpec inclusive = s;
    inclusive.hier.enforce_inclusion = true;
    expectInternal(again, inclusive, stream, "coupled spec");
}

} // namespace
} // namespace exec
} // namespace assoc
