#include <gtest/gtest.h>

#include "check/fuzz.h"
#include "util/logging.h"

namespace assoc {
namespace check {
namespace {

TEST(BugInjectionParsing, KnownNamesAndRejection)
{
    EXPECT_EQ(bugInjectionFromString("none"), BugInjection::None);
    EXPECT_EQ(bugInjectionFromString("naive-skip"),
              BugInjection::NaiveSkip);
    EXPECT_EQ(bugInjectionFromString("mru-undercount"),
              BugInjection::MruUndercount);
    EXPECT_EQ(bugInjectionFromString("partial-filter"),
              BugInjection::PartialFilter);
    EXPECT_EQ(bugInjectionFromString("memo-stale"),
              BugInjection::MemoStale);
    EXPECT_THROW(bugInjectionFromString("bogus"), FatalError);
}

TEST(SampleCase, IsAPureFunctionOfSeedAndIndex)
{
    const FuzzCase a = sampleCase(42, 7);
    const FuzzCase b = sampleCase(42, 7);
    EXPECT_EQ(a.case_seed, b.case_seed);
    EXPECT_EQ(a.tag_bits, b.tag_bits);
    EXPECT_EQ(a.describe(), b.describe());
    ASSERT_EQ(a.refs.size(), b.refs.size());
    EXPECT_TRUE(std::equal(a.refs.begin(), a.refs.end(),
                           b.refs.begin()));
}

TEST(SampleCase, DifferentIndicesGiveDifferentCases)
{
    const FuzzCase a = sampleCase(42, 0);
    const FuzzCase b = sampleCase(42, 1);
    EXPECT_NE(a.case_seed, b.case_seed);
    // The traces are independent draws; identical streams would
    // mean the seed expansion is broken.
    EXPECT_FALSE(a.refs.size() == b.refs.size() &&
                 std::equal(a.refs.begin(), a.refs.end(),
                            b.refs.begin()));
}

TEST(SampleCase, AlwaysIncludesTheCoreSchemes)
{
    for (std::uint64_t i = 0; i < 20; ++i) {
        const FuzzCase c = sampleCase(1, i);
        ASSERT_GE(c.schemes.size(), 4u);
        EXPECT_EQ(c.schemes[0].kind, core::SchemeKind::Traditional);
        EXPECT_EQ(c.schemes[1].kind, core::SchemeKind::Naive);
        EXPECT_EQ(c.schemes[2].kind, core::SchemeKind::Mru);
        for (const core::SchemeSpec &s : c.schemes)
            EXPECT_EQ(s.tag_bits, c.tag_bits);
    }
}

TEST(RunCase, CleanOnSampledCases)
{
    for (std::uint64_t i = 0; i < 15; ++i) {
        const FuzzCase c = sampleCase(5, i);
        const CaseResult r = runCase(c);
        EXPECT_TRUE(r.log.ok())
            << "case " << i << ": " << c.describe() << "\n  "
            << (r.log.messages().empty() ? ""
                                         : r.log.messages().front());
        EXPECT_GT(r.accesses, 0u) << "case " << i;
    }
}

TEST(RunCase, DigestIsReproducible)
{
    const FuzzCase c = sampleCase(9, 3);
    const CaseResult a = runCase(c);
    const CaseResult b = runCase(c);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.accesses, b.accesses);
}

TEST(RunFuzz, CampaignIsDeterministic)
{
    FuzzOptions opt;
    opt.seed = 11;
    opt.iterations = 10;
    const FuzzSummary a = runFuzz(opt);
    const FuzzSummary b = runFuzz(opt);
    EXPECT_TRUE(a.ok());
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.cases_run, 10u);

    opt.seed = 12;
    const FuzzSummary other = runFuzz(opt);
    EXPECT_NE(a.digest, other.digest);
}

TEST(RunFuzz, CatchesAnInjectedNaiveBug)
{
    FuzzOptions opt;
    opt.seed = 3;
    opt.iterations = 50;
    opt.inject = BugInjection::NaiveSkip;
    const FuzzSummary sum = runFuzz(opt);
    ASSERT_FALSE(sum.ok());
    const FuzzFailure &f = sum.failures.front();
    EXPECT_FALSE(f.messages.empty());
    EXPECT_FALSE(f.minimized.empty());
    // The minimized trace must still reproduce the failure.
    const FuzzCase c = sampleCase(opt.seed, f.index);
    EXPECT_FALSE(
        runCase(c, opt.inject, &f.minimized).log.ok());
    // And the repro command replays exactly the failing case.
    EXPECT_EQ(reproCommand(opt.seed, f.index),
              "fuzz_diff --seed=3 --config=" +
                  std::to_string(f.index));
    FuzzOptions replay;
    replay.seed = opt.seed;
    replay.have_only_case = true;
    replay.only_case = f.index;
    replay.inject = opt.inject;
    replay.minimize = false;
    EXPECT_FALSE(runFuzz(replay).ok());
}

TEST(RunFuzz, CatchesAnInjectedStaleMemoBug)
{
    // The memo-consistency invariant: a memo table that serves a
    // rotated (stale) way must be flagged by the campaign even
    // though hit/miss verdicts stay plausible per access.
    FuzzOptions opt;
    opt.seed = 3;
    opt.iterations = 50;
    opt.inject = BugInjection::MemoStale;
    const FuzzSummary sum = runFuzz(opt);
    ASSERT_FALSE(sum.ok());
    const FuzzFailure &f = sum.failures.front();
    EXPECT_FALSE(f.messages.empty());
    const FuzzCase c = sampleCase(opt.seed, f.index);
    EXPECT_FALSE(runCase(c, opt.inject, &f.minimized).log.ok());
}

TEST(RunFuzz, ReplayOfACleanCasePasses)
{
    FuzzOptions opt;
    opt.seed = 3;
    opt.have_only_case = true;
    opt.only_case = 42;
    const FuzzSummary sum = runFuzz(opt);
    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(sum.cases_run, 1u);
}

TEST(FormatRef, RendersTypesAndAddresses)
{
    trace::MemRef r;
    r.addr = 0x1234;
    r.type = trace::RefType::Write;
    r.pid = 2;
    EXPECT_EQ(formatRef(r), "W 0x1234 pid=2");
    EXPECT_EQ(formatRef(trace::MemRef::flush()), "FLUSH");
}

} // namespace
} // namespace check
} // namespace assoc
