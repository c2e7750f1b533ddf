// Tests for the svc chaos campaign (check/svc_chaos.h): case
// sampling determinism, per-fault-kind execution with conservation
// and serializability intact, campaign digest stability across
// reruns, and repro-command shape.

#include "check/svc_chaos.h"

#include <set>

#include <gtest/gtest.h>

namespace {

using namespace assoc;
using check::SvcChaosCase;
using check::SvcChaosOptions;
using check::SvcChaosRun;
using check::SvcChaosSummary;

TEST(SvcChaosSampling, CasesArePureFunctionsOfSeedAndIndex)
{
    for (std::uint64_t i = 0; i < 20; ++i) {
        SvcChaosCase a = check::sampleSvcChaosCase(11, i);
        SvcChaosCase b = check::sampleSvcChaosCase(11, i);
        EXPECT_EQ(a.case_seed, b.case_seed);
        EXPECT_EQ(a.threads, b.threads);
        EXPECT_EQ(a.ops_per_thread, b.ops_per_thread);
        EXPECT_EQ(a.fault.svc_fault, b.fault.svc_fault);
        EXPECT_EQ(a.fault.svc_victim, b.fault.svc_victim);
        EXPECT_EQ(a.cfg.admission.quota_burst,
                  b.cfg.admission.quota_burst);
        EXPECT_EQ(a.describe(), b.describe());
    }
}

TEST(SvcChaosSampling, SweepsEveryServiceFaultKind)
{
    std::set<exec::SvcFaultKind> seen;
    for (std::uint64_t i = 0; i < 64; ++i)
        seen.insert(check::sampleSvcChaosCase(5, i).fault.svc_fault);
    EXPECT_TRUE(seen.count(exec::SvcFaultKind::LockHolderStall));
    EXPECT_TRUE(seen.count(exec::SvcFaultKind::TenantFlood));
    EXPECT_TRUE(seen.count(exec::SvcFaultKind::BudgetSqueeze));
    EXPECT_TRUE(seen.count(exec::SvcFaultKind::DeadlineStorm));
}

TEST(SvcChaosSampling, ThreadsOverrideWins)
{
    SvcChaosCase c = check::sampleSvcChaosCase(5, 3, 7);
    EXPECT_EQ(c.threads, 7u);
}

// One case per fault kind, executed for real: the case must hold
// conservation + serializability and shed/fail only with the
// structured error shapes (all asserted inside runSvcChaosCase).
TEST(SvcChaosRunCase, EveryFaultKindPassesItsInvariants)
{
    std::set<exec::SvcFaultKind> covered;
    for (std::uint64_t i = 0; i < 24 && covered.size() < 4; ++i) {
        SvcChaosCase c = check::sampleSvcChaosCase(3, i, 2);
        if (covered.count(c.fault.svc_fault))
            continue;
        covered.insert(c.fault.svc_fault);
        SvcChaosRun run = check::runSvcChaosCase(c);
        EXPECT_TRUE(run.log.ok())
            << c.describe() << ": " << run.log.messages().front();
        EXPECT_GT(run.ops, 0u);
        EXPECT_TRUE(run.totals.conservationHolds());
    }
    EXPECT_EQ(covered.size(), 4u);
}

TEST(SvcChaosRunCase, DeterminismDigestIsStableAcrossRuns)
{
    SvcChaosCase c = check::sampleSvcChaosCase(9, 2, 2);
    SvcChaosRun a = check::runSvcChaosCase(c);
    SvcChaosRun b = check::runSvcChaosCase(c);
    ASSERT_TRUE(a.log.ok());
    ASSERT_TRUE(b.log.ok());
    EXPECT_EQ(a.determinism_digest, b.determinism_digest);
    EXPECT_TRUE(
        identicalStats(a.totals, b.totals));
}

TEST(SvcChaosCampaign, SmallCampaignPassesAndDigestsStably)
{
    SvcChaosOptions opt;
    opt.seed = 21;
    opt.iterations = 4;
    opt.threads = 2;
    SvcChaosSummary first = check::runSvcChaos(opt);
    SvcChaosSummary second = check::runSvcChaos(opt);
    EXPECT_TRUE(first.ok());
    EXPECT_EQ(first.cases_run, 4u);
    EXPECT_GT(first.ops, 0u);
    EXPECT_TRUE(first.totals.conservationHolds());
    EXPECT_EQ(first.digest, second.digest);
}

TEST(SvcChaosCampaign, OnlyCaseRunsExactlyOne)
{
    SvcChaosOptions opt;
    opt.seed = 21;
    opt.iterations = 50;
    opt.threads = 2;
    opt.have_only_case = true;
    opt.only_case = 3;
    SvcChaosSummary sum = check::runSvcChaos(opt);
    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(sum.cases_run, 1u);
}

TEST(SvcChaosRepro, CommandNamesTheTool)
{
    std::string cmd = check::svcChaosReproCommand(7, 42);
    EXPECT_NE(cmd.find("fuzz_diff"), std::string::npos);
    EXPECT_NE(cmd.find("--svc-chaos"), std::string::npos);
    EXPECT_NE(cmd.find("--seed=7"), std::string::npos);
    EXPECT_NE(cmd.find("--config=42"), std::string::npos);
}

} // namespace
