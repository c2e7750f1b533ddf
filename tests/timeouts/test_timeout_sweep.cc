// Integration tests for the runaway-work defenses end to end:
// hang-injected sweeps cut loose by the watchdog with bit-identical
// siblings and byte-identical resume, sweep deadlines leaving gap
// rows, SIGINT racing the journal drain, memory budgets, slow jobs
// that must survive, and armed-token determinism.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/report.h"
#include "exec/sweep.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/din_io.h"

namespace assoc {
namespace exec {
namespace {

constexpr std::uint64_t kMs = 1000 * 1000;

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 99;
    cfg.segments = 1;
    cfg.refs_per_segment = 2000;
    cfg.processes = 2;
    cfg.switch_mean = 50;
    return cfg;
}

std::vector<sim::RunSpec>
threeSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = {mem::CacheGeometry(4096, 16, 1),
                     mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec s;
        s.kind = core::SchemeKind::Naive;
        spec.schemes.push_back(s);
        spec.schemes.push_back(core::SchemeSpec::paperPartial(a));
        specs.push_back(spec);
    }
    return specs;
}

/** Clean outputs of a plain runTrace() loop, for bit-comparison. */
std::vector<std::string>
golden(const std::vector<sim::RunSpec> &specs,
       const trace::AtumLikeConfig &tcfg)
{
    std::vector<std::string> enc;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        enc.push_back(encodeRunOutput(sim::runTrace(gen, spec)));
    }
    return enc;
}

std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "timeout_sweep_" + name;
}

TEST(TimeoutSweep, HangIsKilledSiblingsSurviveAndResumeIsExact)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();
    std::vector<std::string> want = golden(specs, tcfg);
    std::string journal = scratchPath("hang.journal");
    std::remove(journal.c_str());
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    FaultPlan plan;
    plan.runaway = RunawayKind::Hang;
    plan.runaway_job = 1;
    plan.runaway_at = 500;
    FaultInjector inject(plan);

    SweepOptions opt;
    opt.jobs = 2;
    opt.max_retries = 0;
    opt.inject = &inject;
    opt.job_timeout_ns = 30 * kMs;
    opt.watchdog.sample_ns = 1 * kMs;
    opt.watchdog.log = false;
    opt.journal_path = journal;
    opt.spec_hash = hash;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    ASSERT_EQ(run.jobs.size(), 3u);
    EXPECT_EQ(run.jobs[1].status, JobStatus::TimedOut);
    EXPECT_EQ(run.jobs[1].error.code(), ErrorCode::Timeout);
    EXPECT_NE(run.jobs[1].error.text().find("job spec hash"),
              std::string::npos);
    EXPECT_EQ(run.timedOut(), 1u);
    EXPECT_FALSE(run.interrupted);
    ASSERT_FALSE(run.stalls.empty());
    EXPECT_EQ(run.stalls[0].job, 1u);
    for (std::size_t i : {std::size_t(0), std::size_t(2)}) {
        ASSERT_TRUE(run.jobs[i].ok()) << run.jobs[i].error.text();
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
    }

    // Resume without the injector completes the killed slot; the
    // merged journal-backed result is byte-identical to golden.
    SweepOptions opt2;
    opt2.jobs = 1;
    opt2.resume_path = journal;
    opt2.spec_hash = hash;
    SweepResult second = runSweepChecked(specs, tcfg, opt2);
    EXPECT_EQ(second.resumed, 2u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(second.jobs[i].ok());
        EXPECT_EQ(encodeRunOutput(second.jobs[i].output), want[i]);
    }
    std::remove(journal.c_str());
}

TEST(TimeoutSweep, TimedOutJobIsRetriedUnderMaxRetries)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();

    FaultPlan plan;
    plan.runaway = RunawayKind::Hang;
    plan.runaway_job = 0;
    plan.runaway_at = 100;
    FaultInjector inject(plan);

    SweepOptions opt;
    opt.jobs = 1;
    opt.max_retries = 1; // hang every attempt: both get a timeslice
    opt.inject = &inject;
    opt.job_timeout_ns = 20 * kMs;
    opt.watchdog.sample_ns = 1 * kMs;
    opt.watchdog.log = false;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    EXPECT_EQ(run.jobs[0].status, JobStatus::TimedOut);
    EXPECT_EQ(run.jobs[0].attempts, 2u)
        << "a timeout must be retried like a transient failure";
    EXPECT_TRUE(run.jobs[1].ok());
    EXPECT_TRUE(run.jobs[2].ok());
}

TEST(TimeoutSweep, ExpiredSweepDeadlineMarksEveryJobTimedOut)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();

    SweepOptions opt;
    opt.jobs = 1;
    opt.sweep_deadline_ns = 1; // expired before the first job runs
    opt.watchdog.log = false;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    EXPECT_EQ(run.timedOut(), 3u);
    EXPECT_FALSE(run.interrupted)
        << "a deadline is not an interrupt (exit 4, not 130)";
    for (const JobResult &j : run.jobs) {
        EXPECT_EQ(j.status, JobStatus::TimedOut);
        EXPECT_NE(j.error.text().find("sweep deadline"),
                  std::string::npos)
            << j.error.text();
    }
}

TEST(TimeoutSweep, JsonReportCarriesGapRowsAndTimeoutCounts)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();

    SweepOptions opt;
    opt.jobs = 1;
    opt.sweep_deadline_ns = 1;
    opt.watchdog.log = false;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    std::ostringstream os;
    writeSweepJson(os, specs, run);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"status\": \"timed-out\""),
              std::string::npos);
    EXPECT_NE(json.find("\"timed_out\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"over_budget\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"error\""), std::string::npos);
    EXPECT_EQ(json.find("\"hits_mean\""), std::string::npos)
        << "gap rows must not carry statistics";
}

TEST(TimeoutSweep, OverBudgetJobFailsOnceSiblingsSurvive)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();
    std::vector<std::string> want = golden(specs, tcfg);

    FaultPlan plan;
    plan.runaway = RunawayKind::Oom;
    plan.runaway_job = 2;
    plan.runaway_at = 300;
    plan.oom_bytes = 64ull << 20;
    FaultInjector inject(plan);

    SweepOptions opt;
    opt.jobs = 2;
    opt.max_retries = 3; // must not be spent: budgets are deterministic
    opt.inject = &inject;
    opt.job_mem_budget = 4ull << 20;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    EXPECT_EQ(run.jobs[2].status, JobStatus::OverBudget);
    EXPECT_EQ(run.jobs[2].error.code(), ErrorCode::Budget);
    EXPECT_EQ(run.jobs[2].attempts, 1u);
    EXPECT_EQ(run.overBudget(), 1u);
    EXPECT_EQ(run.resourceKilled(), 1u);
    for (std::size_t i : {std::size_t(0), std::size_t(1)}) {
        ASSERT_TRUE(run.jobs[i].ok());
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
    }
}

TEST(TimeoutSweep, SlowJobIsNotKilled)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();
    std::vector<std::string> want = golden(specs, tcfg);

    FaultPlan plan;
    plan.seed = 7;
    plan.runaway = RunawayKind::Slow;
    plan.runaway_job = 0;
    plan.runaway_at = 0;
    plan.slow_every = 64;
    plan.slow_ns = 20000;
    FaultInjector inject(plan);

    SweepOptions opt;
    opt.jobs = 2;
    opt.inject = &inject;
    opt.job_timeout_ns = 10ull * 1000 * kMs; // generous 10s
    opt.watchdog.log = false;
    SweepResult run = runSweepChecked(specs, tcfg, opt);

    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(run.jobs[i].ok()) << run.jobs[i].error.text();
        EXPECT_EQ(run.jobs[i].attempts, 1u);
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output), want[i]);
    }
    EXPECT_TRUE(run.stalls.empty());
}

TEST(TimeoutSweep, ArmedTokenLeavesTheOutputUnchanged)
{
    // Arming a token must not change a single bit of the output, at
    // any checkpoint cadence.
    trace::AtumLikeConfig tcfg = smallTrace();
    sim::RunSpec spec = threeSpecs()[1];

    trace::AtumLikeGenerator plain(tcfg);
    std::string fast = encodeRunOutput(sim::runTrace(plain, spec));

    CancelToken token; // never trips
    for (std::uint64_t every : {1ull, 7ull, 4096ull}) {
        sim::RunSpec guarded = spec;
        guarded.cancel = &token;
        guarded.checkpoint_every = every;
        trace::AtumLikeGenerator gen(tcfg);
        EXPECT_EQ(encodeRunOutput(sim::runTrace(gen, guarded)), fast)
            << "checkpoint_every=" << every;
    }
}

TEST(TimeoutSweep, CancelledTokenStopsTheRunnerPromptly)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    sim::RunSpec spec = threeSpecs()[0];
    CancelToken token;
    token.cancel();
    spec.cancel = &token;
    spec.checkpoint_every = 64;
    trace::AtumLikeGenerator gen(tcfg);
    try {
        sim::runTrace(gen, spec);
        FAIL() << "cancelled run did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Cancelled);
    }
}

TEST(TimeoutSweep, SigintDuringHangDrainsTheJournalCleanly)
{
    // Satellite regression: a SIGINT delivered while a hang-injected
    // job is wedged (and the watchdog is in its grace period) must
    // release the job, drain the sweep, and leave a readable journal
    // — the drain takes the journal mutex, so the final close cannot
    // race an in-flight append.
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = threeSpecs();
    std::string journal = scratchPath("sigint.journal");
    std::remove(journal.c_str());
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    installSigintHandler();
    clearSigintForTests();
    CancelToken outer;
    outer.watchSigint();

    FaultPlan plan;
    plan.runaway = RunawayKind::Hang;
    plan.runaway_job = 0;
    plan.runaway_at = 200;
    FaultInjector inject(plan);

    SweepOptions opt;
    opt.jobs = 2;
    opt.max_retries = 0;
    opt.inject = &inject;
    opt.cancel = &outer;
    // Long job timeout: SIGINT, not the watchdog, must do the release.
    opt.job_timeout_ns = 10ull * 1000 * kMs;
    opt.watchdog.log = false;
    opt.journal_path = journal;
    opt.spec_hash = hash;

    std::thread interrupter([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        std::raise(SIGINT);
    });
    SweepResult run = runSweepChecked(specs, tcfg, opt);
    interrupter.join();

    // The wedged job was released by the SIGINT and reports
    // Cancelled; the sweep records the interrupt.
    EXPECT_EQ(run.jobs[0].status, JobStatus::Cancelled);
    EXPECT_TRUE(run.interrupted);

    // The journal survived the drain: readable, correct hash, and
    // every entry it holds decodes bit-exactly.
    Expected<JournalData> data = readJournal(journal);
    ASSERT_TRUE(data.ok()) << data.error().text();
    EXPECT_EQ(data.value().spec_hash, hash);
    EXPECT_EQ(data.value().dropped_lines, 0u);
    clearSigintForTests();
    std::remove(journal.c_str());
}

TEST(TimeoutSweep, DinReaderHonorsCancelAndBudget)
{
    // The trace readers poll the token between records and charge
    // their line buffers, so a doomed read stops in bounded time.
    std::string path = scratchPath("reader.din");
    {
        std::ofstream os(path);
        for (int i = 0; i < 2000; ++i)
            os << "0 " << std::hex << (i * 16) << std::dec << " 0\n";
    }

    trace::DinTraceSource src(path);
    CancelToken token;
    token.cancelTimeout();
    src.setCancelToken(&token);
    trace::MemRef r;
    std::uint64_t streamed = 0;
    while (src.next(r))
        ++streamed;
    EXPECT_LT(streamed, 2000u) << "tripped token did not stop the read";
    ASSERT_TRUE(src.failed());
    EXPECT_EQ(src.error().code(), ErrorCode::Timeout);

    // A tiny budget rejects the line buffer as soon as it grows.
    trace::DinTraceSource tight(path);
    MemBudget budget(8);
    tight.setMemBudget(&budget);
    streamed = 0;
    while (tight.next(r))
        ++streamed;
    ASSERT_TRUE(tight.failed());
    EXPECT_EQ(tight.error().code(), ErrorCode::Budget);
    std::remove(path.c_str());
}

} // namespace
} // namespace exec
} // namespace assoc
