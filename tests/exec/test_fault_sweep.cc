/**
 * @file
 * Fault-isolated sweep tests: one failing job must not poison the
 * sweep — every surviving slot stays bit-identical to a plain
 * runTrace() loop — transient errors get one deterministic retry,
 * hard errors none, cancellation marks unstarted jobs, and the
 * checked JSON report carries per-job status.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/report.h"
#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 1;
    cfg.refs_per_segment = 5000;
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

/** Reference outputs from a plain runTrace() loop, encoded. */
std::vector<std::string>
serialBaseline(const std::vector<sim::RunSpec> &specs,
               const trace::AtumLikeConfig &tcfg)
{
    std::vector<std::string> enc;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        enc.push_back(encodeRunOutput(sim::runTrace(gen, spec)));
    }
    return enc;
}

TEST(FaultSweep, AllOkMatchesTheSerialSweep)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = serialBaseline(specs, tcfg);

    SweepOptions opts;
    opts.jobs = 3;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);
    EXPECT_TRUE(run.allOk());
    EXPECT_FALSE(run.interrupted);
    ASSERT_EQ(run.jobs.size(), specs.size());
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        EXPECT_EQ(run.jobs[i].attempts, 1u);
        EXPECT_FALSE(run.jobs[i].from_journal);
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
    }
}

TEST(FaultSweep, OneFailingJobIsIsolated)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = serialBaseline(specs, tcfg);

    FaultPlan plan;
    plan.fail_job = 1;
    FaultInjector inject(plan);
    SweepOptions opts;
    opts.jobs = 2;
    opts.inject = &inject;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_FALSE(run.allOk());
    EXPECT_EQ(run.failures(), 1u);
    ASSERT_EQ(run.jobs.size(), specs.size());
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        if (i == 1) {
            EXPECT_EQ(run.jobs[i].status, JobStatus::Failed);
            EXPECT_EQ(run.jobs[i].error.code(), ErrorCode::Data);
            // Hard (non-transient) failures are not retried.
            EXPECT_EQ(run.jobs[i].attempts, 1u);
            continue;
        }
        ASSERT_TRUE(run.jobs[i].ok()) << i;
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i])
            << "surviving slot " << i
            << " diverged from the serial run";
    }
    EXPECT_EQ(run.firstError().code(), ErrorCode::Data);
}

TEST(FaultSweep, TransientFailureIsRetriedOnce)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = serialBaseline(specs, tcfg);

    FaultPlan plan;
    plan.fail_job = 2;
    plan.fail_attempts = 1; // only the first attempt fails
    plan.transient = true;
    FaultInjector inject(plan);
    SweepOptions opts;
    opts.jobs = 2;
    opts.max_retries = 1;
    opts.inject = &inject;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_TRUE(run.allOk());
    EXPECT_EQ(inject.injected(), 1u);
    EXPECT_EQ(run.jobs[2].attempts, 2u);
    for (std::size_t i = 0; i < run.jobs.size(); ++i)
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
}

TEST(FaultSweep, RetriesAreExhaustedDeterministically)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    FaultPlan plan;
    plan.fail_job = 0;
    plan.transient = true; // fails every attempt
    FaultInjector inject(plan);
    SweepOptions opts;
    opts.jobs = 1;
    opts.max_retries = 2;
    opts.inject = &inject;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_EQ(run.jobs[0].status, JobStatus::Failed);
    EXPECT_EQ(run.jobs[0].error.code(), ErrorCode::Io);
    EXPECT_EQ(run.jobs[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(inject.injected(), 3u);
}

TEST(FaultSweep, HardErrorsAreNotRetried)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    FaultPlan plan;
    plan.fail_job = 0;
    plan.fail_attempts = 1; // a Data error a retry would cure
    FaultInjector inject(plan);
    SweepOptions opts;
    opts.jobs = 1;
    opts.max_retries = 1;
    opts.inject = &inject;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_EQ(run.jobs[0].status, JobStatus::Failed);
    EXPECT_EQ(run.jobs[0].error.code(), ErrorCode::Data);
    EXPECT_EQ(run.jobs[0].attempts, 1u);
    EXPECT_EQ(inject.injected(), 1u);
}

TEST(FaultSweep, ThrowingLookupFailsOnlyItsJob)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = serialBaseline(specs, tcfg);

    ThrowingAuditor auditor(10);
    specs[3].auditor = &auditor;
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_EQ(run.jobs[3].status, JobStatus::Failed);
    EXPECT_EQ(run.jobs[3].error.code(), ErrorCode::Internal);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(run.jobs[i].ok());
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
    }
}

TEST(FaultSweep, CancellationMarksUnstartedJobs)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    CancelToken token;
    FaultPlan plan;
    plan.cancel_after = 2;
    FaultInjector inject(plan, &token);
    SweepOptions opts;
    opts.jobs = 1; // serial: the cancel point is deterministic
    opts.inject = &inject;
    opts.cancel = &token;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    EXPECT_TRUE(run.interrupted);
    EXPECT_TRUE(run.jobs[0].ok());
    EXPECT_TRUE(run.jobs[1].ok());
    EXPECT_EQ(run.jobs[2].status, JobStatus::Cancelled);
    EXPECT_EQ(run.jobs[3].status, JobStatus::Cancelled);
    EXPECT_EQ(run.cancelled(), 2u);
}

TEST(FaultSweep, CheckedJsonReportsPerJobStatus)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    FaultPlan plan;
    plan.fail_job = 1;
    FaultInjector inject(plan);
    SweepOptions opts;
    opts.jobs = 1;
    opts.inject = &inject;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);

    std::ostringstream os;
    writeSweepJson(os, specs, run);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""),
              std::string::npos);
    EXPECT_NE(json.find("\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"code\": \"data\""), std::string::npos);
    EXPECT_NE(json.find("\"failures\": 1"), std::string::npos);
    // Well-formedness: balanced braces and brackets.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
} // namespace exec
} // namespace assoc
