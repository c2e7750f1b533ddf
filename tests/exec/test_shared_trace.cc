/**
 * @file
 * Generate once, replay many: a checked sweep given the trace's
 * config synthesizes it once into a shared buffer charged to the
 * sweep-global budget, and its outputs are bit-identical to every
 * job streaming its own generator. A budget that refuses the buffer,
 * or a sweep with fewer than two jobs left, streams instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

/** Large enough that the trace outweighs four hierarchies. */
trace::AtumLikeConfig
traceConfig()
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 1313;
    cfg.segments = 2;
    cfg.refs_per_segment = 20000;
    return cfg;
}

std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u, 16u}) {
        sim::RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(4096, 16, 1),
            mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {naive, mru,
                        core::SchemeSpec::paperPartial(a)};
        specs.push_back(spec);
    }
    return specs;
}

std::uint64_t
traceBytes(const trace::AtumLikeConfig &cfg)
{
    return trace::AtumLikeGenerator(cfg).totalRefs() *
           sizeof(trace::MemRef);
}

/** The smallest and largest hierarchy charge among @p specs. */
std::pair<std::uint64_t, std::uint64_t>
footprints(const std::vector<sim::RunSpec> &specs)
{
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const sim::RunSpec &s : specs) {
        std::uint64_t b = mem::TwoLevelHierarchy(s.hier).footprintBytes();
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    return {lo, hi};
}

/** Every job streaming its own generator: the reference outputs. */
std::vector<std::string>
streamedOutputs(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &tcfg)
{
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);
    EXPECT_EQ(run.shared_trace_bytes, 0u);
    std::vector<std::string> enc;
    for (const JobResult &j : run.jobs) {
        EXPECT_TRUE(j.ok()) << j.error.text();
        enc.push_back(encodeRunOutput(j.output));
    }
    return enc;
}

void
expectOutputs(const SweepResult &run,
              const std::vector<std::string> &want)
{
    ASSERT_EQ(run.jobs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(run.jobs[i].ok())
            << "job " << i << ": " << run.jobs[i].error.text();
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i])
            << "job " << i << " diverged from the streamed sweep";
    }
}

TEST(SharedTrace, MatchesPerJobStreamingAtEveryJobCount)
{
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::vector<std::string> want = streamedOutputs(specs, tcfg);

    for (unsigned jobs : {1u, 2u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepResult run = runSweepChecked(specs, tcfg, opts);
        EXPECT_EQ(run.shared_trace_bytes, traceBytes(tcfg))
            << "jobs=" << jobs << " did not share the trace";
        expectOutputs(run, want);
    }
}

TEST(SharedTrace, BudgetBelowTheTraceStreamsInstead)
{
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::vector<std::string> want = streamedOutputs(specs, tcfg);
    const std::uint64_t bytes = traceBytes(tcfg);
    ASSERT_LE(2 * footprints(specs).second, bytes - 1)
        << "two concurrent hierarchies must fit the budget";

    SweepOptions opts;
    opts.jobs = 2;
    opts.mem_budget = bytes - 1;
    SweepResult run = runSweepChecked(specs, tcfg, opts);
    EXPECT_EQ(run.shared_trace_bytes, 0u);
    EXPECT_EQ(run.overBudget(), 0u);
    expectOutputs(run, want);
}

TEST(SharedTrace, ChargeIsHeldForTheWholeSweep)
{
    // Room for the trace plus one hierarchy, less a byte: once the
    // trace is charged, no job fits — not even the last one to run,
    // so the charge is still held then.
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::uint64_t budget =
        traceBytes(tcfg) + footprints(specs).first - 1;

    for (unsigned jobs : {1u, 2u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        opts.max_retries = 2; // budgets are deterministic: never spent
        opts.mem_budget = budget;
        SweepResult run = runSweepChecked(specs, tcfg, opts);
        EXPECT_EQ(run.shared_trace_bytes, traceBytes(tcfg));
        ASSERT_EQ(run.overBudget(), specs.size()) << "jobs=" << jobs;
        for (const JobResult &j : run.jobs) {
            EXPECT_EQ(j.error.code(), ErrorCode::Budget);
            EXPECT_EQ(j.attempts, 1u);
            EXPECT_NE(j.error.text().find("cache hierarchy"),
                      std::string::npos)
                << j.error.text();
            EXPECT_NE(j.error.text().find("job spec hash"),
                      std::string::npos)
                << j.error.text();
        }

        // Streaming, the same budget holds every job.
        SweepResult streamed =
            runSweepChecked(specs, atumTraceFactory(tcfg), opts);
        EXPECT_TRUE(streamed.allOk()) << streamed.firstError().text();
    }
}

TEST(SharedTrace, JobBudgetsDoNotPayForTheTrace)
{
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::vector<std::string> want = streamedOutputs(specs, tcfg);

    SweepOptions opts;
    opts.jobs = 2;
    opts.job_mem_budget = footprints(specs).second; // no room to spare
    SweepResult run = runSweepChecked(specs, tcfg, opts);
    EXPECT_EQ(run.shared_trace_bytes, traceBytes(tcfg));
    expectOutputs(run, want);
}

TEST(SharedTrace, ResumeWithOneJobLeftStreams)
{
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::vector<std::string> want = streamedOutputs(specs, tcfg);
    const std::string journal =
        ::testing::TempDir() + "shared_trace_resume.journal";
    std::remove(journal.c_str());
    const std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    FaultPlan plan;
    plan.fail_job = 2;
    FaultInjector inject(plan);
    SweepOptions opt1;
    opt1.jobs = 2;
    opt1.inject = &inject;
    opt1.journal_path = journal;
    opt1.spec_hash = hash;
    SweepResult first = runSweepChecked(specs, tcfg, opt1);
    EXPECT_EQ(first.shared_trace_bytes, traceBytes(tcfg));
    ASSERT_EQ(first.failures(), 1u);
    EXPECT_EQ(first.jobs[2].status, JobStatus::Failed);

    // A budget that would fail every job had the trace been charged:
    // the one job left streams, so it fits.
    SweepOptions opt2;
    opt2.jobs = 2;
    opt2.resume_path = journal;
    opt2.spec_hash = hash;
    opt2.mem_budget = traceBytes(tcfg) + footprints(specs).first - 1;
    SweepResult second = runSweepChecked(specs, tcfg, opt2);
    EXPECT_EQ(second.resumed, specs.size() - 1);
    EXPECT_EQ(second.shared_trace_bytes, 0u);
    expectOutputs(second, want);
    std::remove(journal.c_str());
}

TEST(SharedTrace, CancelledSweepSynthesizesNothing)
{
    const trace::AtumLikeConfig tcfg = traceConfig();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    CancelToken cancel;
    cancel.cancel();
    SweepOptions opts;
    opts.jobs = 2;
    opts.cancel = &cancel;
    SweepResult run = runSweepChecked(specs, tcfg, opts);
    EXPECT_EQ(run.shared_trace_bytes, 0u);
    EXPECT_EQ(run.cancelled(), specs.size());
    EXPECT_TRUE(run.interrupted);
}

TEST(SharedTrace, InvalidConfigFailsEveryJobAsStreamingDoes)
{
    trace::AtumLikeConfig tcfg = traceConfig();
    tcfg.segments = 0;
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult shared = runSweepChecked(specs, tcfg, opts);
    SweepResult streamed =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);
    EXPECT_EQ(shared.shared_trace_bytes, 0u);
    ASSERT_EQ(shared.failures(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(shared.jobs[i].error.code(), ErrorCode::Usage);
        EXPECT_EQ(shared.jobs[i].error.text(),
                  streamed.jobs[i].error.text());
    }
}

} // namespace
} // namespace exec
} // namespace assoc
