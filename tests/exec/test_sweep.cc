/**
 * @file
 * Integration tests of the parallel sweep engine: runSweepChecked()
 * with several workers must produce results identical to a plain
 * runTrace() loop, down to every journaled counter, on a short
 * 2-segment trace;
 * runJobs() must run every job exactly once, inline and in order
 * with one worker, and rethrow a job's exception only after every
 * sibling ran; the progress meter and JSON writer round out the
 * reporting path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

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
    cfg.segments = 2;
    cfg.refs_per_segment = 30000;
    return cfg;
}

std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u, 16u}) {
        sim::RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(16384, 16, 1),
            mem::CacheGeometry(262144, 32, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {naive, mru,
                        core::SchemeSpec::paperPartial(a)};
        if (a == 4)
            spec.with_distances = true;
        specs.push_back(spec);
    }
    return specs;
}

/** The outputs of a checked sweep, which must have run clean. */
std::vector<sim::RunOutput>
checkedOutputs(const std::vector<sim::RunSpec> &specs,
               const TraceFactory &make_trace, unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    SweepResult run = runSweepChecked(specs, make_trace, opts);
    EXPECT_TRUE(run.allOk()) << run.firstError().text();
    std::vector<sim::RunOutput> outs;
    for (JobResult &j : run.jobs)
        outs.push_back(std::move(j.output));
    return outs;
}

TEST(Sweep, ParallelMatchesSerialLoop)
{
    const trace::AtumLikeConfig tcfg = smallTrace();
    const std::vector<sim::RunSpec> specs = sweepSpecs();

    // The old serial loop, verbatim.
    std::vector<sim::RunOutput> serial;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        serial.push_back(sim::runTrace(gen, spec));
    }

    std::vector<sim::RunOutput> parallel =
        checkedOutputs(specs, atumTraceFactory(tcfg), 4);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(encodeRunOutput(parallel[i]),
                  encodeRunOutput(serial[i]))
            << "slot " << i;
}

TEST(Sweep, JobsOneIsTheSerialPath)
{
    const trace::AtumLikeConfig tcfg = smallTrace();
    const std::vector<sim::RunSpec> specs = sweepSpecs();

    std::vector<sim::RunOutput> one =
        checkedOutputs(specs, atumTraceFactory(tcfg), 1);
    std::vector<sim::RunOutput> many =
        checkedOutputs(specs, atumTraceFactory(tcfg), 3);

    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(encodeRunOutput(many[i]), encodeRunOutput(one[i]))
            << "slot " << i;
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    const trace::AtumLikeConfig tcfg = smallTrace();
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<sim::RunOutput> outs =
        checkedOutputs(specs, atumTraceFactory(tcfg), 4);
    ASSERT_EQ(outs.size(), 4u);
    // Each spec carries a different L2 associativity; the Naive
    // scheme's worst-case probe count reveals which run landed in
    // which slot.
    for (std::size_t i = 0; i < outs.size(); ++i)
        EXPECT_EQ(outs[i].names[0], "Naive") << i;
    // with_distances was requested only for the a=4 spec (slot 1).
    EXPECT_TRUE(outs[0].f.empty());
    EXPECT_FALSE(outs[1].f.empty());
    EXPECT_TRUE(outs[2].f.empty());
    EXPECT_TRUE(outs[3].f.empty());
}

TEST(Sweep, RunJobsSerialExecutesInOrder)
{
    std::vector<int> order;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back([&order, i] { order.push_back(i); });
    runJobs(std::move(jobs), 1);
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Sweep, RunJobsTicksProgress)
{
    ProgressMeter meter(16);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back([] {});
    runJobs(std::move(jobs), 4, &meter);
    EXPECT_EQ(meter.completed(), 16u);
    EXPECT_EQ(meter.total(), 16u);
}

TEST(Sweep, RunJobsPropagatesExceptions)
{
    for (unsigned threads : {2u, 1u}) {
        std::vector<std::function<void()>> jobs;
        jobs.push_back([] {});
        jobs.push_back([] { throw std::runtime_error("job failed"); });
        jobs.push_back([] {});
        EXPECT_THROW(runJobs(std::move(jobs), threads),
                     std::runtime_error)
            << threads << " thread(s)";
    }
}

TEST(Sweep, RunJobsExceptionWaitsForEverySibling)
{
    // The failure never skips a sibling, inline or on workers: the
    // job after the throwing one still runs before the rethrow.
    for (unsigned threads : {2u, 1u}) {
        std::atomic<int> ran{0};
        std::vector<std::function<void()>> jobs;
        jobs.push_back([&] { ++ran; });
        jobs.push_back([] { throw std::runtime_error("job failed"); });
        jobs.push_back([&] { ++ran; });
        EXPECT_THROW(runJobs(std::move(jobs), threads),
                     std::runtime_error)
            << threads << " thread(s)";
        EXPECT_EQ(ran.load(), 2) << threads << " thread(s)";
    }
}

TEST(Sweep, RunJobsRunsEveryJobExactlyOnce)
{
    constexpr int kJobs = 1000;
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto &h : hits)
        h = 0;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < kJobs; ++i)
        jobs.push_back([&hits, i] { ++hits[i]; });
    runJobs(std::move(jobs), 4);
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(Sweep, RunJobsStressTenThousandNoops)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs(10000, [&] { ++count; });
    runJobs(std::move(jobs), 8);
    EXPECT_EQ(count.load(), 10000);
}

TEST(Sweep, RunJobsUnevenJobsAllComplete)
{
    // A few slow jobs hold their workers while the others drain the
    // rest of the cursor.
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&count, i] {
            if (i % 16 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            ++count;
        });
    }
    runJobs(std::move(jobs), 4);
    EXPECT_EQ(count.load(), 64);
}

TEST(Sweep, RunJobsRunsOnWorkerThreads)
{
    // Each job takes a millisecond, so a calling thread that joined
    // in would get some of them.
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::vector<std::function<void()>> jobs(32, [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    runJobs(std::move(jobs), 2);
    EXPECT_FALSE(ids.empty());
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(Sweep, RunJobsWithNoJobsReturnsAtOnce)
{
    ProgressMeter meter(0);
    runJobs({}, 4, &meter);
    runJobs({}, 1, &meter);
    EXPECT_EQ(meter.completed(), 0u);
}

TEST(Sweep, RunJobsZeroThreadsRunsEverything)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs(64, [&] { ++count; });
    runJobs(std::move(jobs), 0);
    EXPECT_EQ(count.load(), 64);
}

TEST(Report, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Report, SweepJsonCarriesRunsAndSchemes)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    tcfg.refs_per_segment = 5000;
    std::vector<sim::RunSpec> specs(1);
    core::SchemeSpec mru;
    mru.kind = core::SchemeKind::Mru;
    specs[0].schemes = {mru};
    std::vector<sim::RunOutput> outs =
        checkedOutputs(specs, atumTraceFactory(tcfg), 1);

    std::ostringstream os;
    writeSweepJson(os, specs, outs);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"runs\""), std::string::npos);
    EXPECT_NE(json.find("\"l1\": \"16K-16\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"MRU\""), std::string::npos);
    EXPECT_NE(json.find("\"local_miss_ratio\""), std::string::npos);
    // Balanced braces and brackets (a cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Report, ProgressMeterCountsAcrossThreads)
{
    ProgressMeter meter(100);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&meter] {
            for (int i = 0; i < 25; ++i)
                meter.tick();
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(meter.completed(), 100u);
}

} // namespace
} // namespace exec
} // namespace assoc
