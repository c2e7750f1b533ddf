/**
 * @file
 * Kernel dispatch and self-check behavior: the registry's
 * preference order, the ASSOC_KERNELS override, and — the startup
 * fix this suite guards — that a table failing its smoke vectors is
 * skipped with a reason instead of crashing or silently miscounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kernels.h"

namespace assoc {
namespace core {
namespace {

/** A deliberately broken table: eq_mask claims every way matches. */
LookupKernels
brokenKernels()
{
    LookupKernels k = swarKernels();
    k.isa = KernelIsa::Swar;
    k.name = "broken";
    k.eq_mask = +[](const std::uint32_t *, const std::uint8_t *,
                    unsigned, std::uint32_t) -> std::uint64_t {
        return ~0ull;
    };
    return k;
}

TEST(KernelDispatch, RegistryHasScalarLastAndSwarAlways)
{
    std::vector<const LookupKernels *> reg = registeredKernels();
    // Preference order is vector ISAs first, then the portable
    // fallbacks: ..., swar, scalar.
    ASSERT_GE(reg.size(), 2u);
    EXPECT_EQ(&scalarKernels(), reg.back());
    EXPECT_EQ(&swarKernels(), reg[reg.size() - 2]);
    for (std::size_t i = 0; i + 2 < reg.size(); ++i)
        EXPECT_EQ(reg[i]->isa, KernelIsa::Avx2) << reg[i]->name;
}

TEST(KernelDispatch, EveryRegisteredTablePassesItsSelfCheck)
{
    for (const LookupKernels *k : registeredKernels()) {
        std::string why;
        EXPECT_TRUE(kernelSelfCheck(*k, &why))
            << k->name << ": " << why;
    }
}

TEST(KernelDispatch, SelfCheckCatchesACorruptTable)
{
    LookupKernels bad = brokenKernels();
    std::string why;
    EXPECT_FALSE(kernelSelfCheck(bad, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_NE(std::string::npos, why.find("eq_mask")) << why;
}

TEST(KernelDispatch, ChooseHonorsAnExplicitName)
{
    std::string reason;
    const LookupKernels &k = chooseKernels(
        "scalar", registeredKernels(), &reason);
    EXPECT_EQ(&scalarKernels(), &k);
    EXPECT_EQ("ASSOC_KERNELS=scalar", reason);
}

TEST(KernelDispatch, UnknownNameFallsBackWithAReason)
{
    std::string reason;
    const LookupKernels &k = chooseKernels(
        "sse9", registeredKernels(), &reason);
    EXPECT_EQ(registeredKernels().front(), &k);
    EXPECT_NE(std::string::npos, reason.find("not registered"))
        << reason;
}

TEST(KernelDispatch, BrokenCandidateIsSkippedNotFatal)
{
    LookupKernels bad = brokenKernels();
    std::vector<const LookupKernels *> reg = {&bad,
                                              &scalarKernels()};
    std::string reason;
    const LookupKernels &k = chooseKernels(nullptr, reg, &reason);
    EXPECT_EQ(&scalarKernels(), &k);
    EXPECT_NE(std::string::npos, reason.find("failed its self-check"))
        << reason;
}

TEST(KernelDispatch, BrokenExplicitNameFallsBackToNextGoodTable)
{
    LookupKernels bad = brokenKernels();
    std::vector<const LookupKernels *> reg = {
        &bad, &swarKernels(), &scalarKernels()};
    std::string reason;
    const LookupKernels &k = chooseKernels("broken", reg, &reason);
    EXPECT_EQ(&swarKernels(), &k);
    EXPECT_NE(std::string::npos,
              reason.find("failed its self-check"))
        << reason;
}

TEST(KernelDispatch, ActiveTableIsRegisteredAndExplained)
{
    const LookupKernels &active = activeKernels();
    bool registered = false;
    for (const LookupKernels *k : registeredKernels())
        if (k == &active)
            registered = true;
    EXPECT_TRUE(registered) << active.name;
    EXPECT_FALSE(kernelDispatchReason().empty());
    std::string why;
    EXPECT_TRUE(kernelSelfCheck(active, &why)) << why;
}

TEST(KernelDispatch, ScopedOverrideAppliesAndRestores)
{
    const LookupKernels &before = activeKernels();
    {
        ScopedKernelOverride o(scalarKernels());
        EXPECT_EQ(&scalarKernels(), &activeKernels());
        {
            ScopedKernelOverride inner(swarKernels());
            EXPECT_EQ(&swarKernels(), &activeKernels());
        }
        EXPECT_EQ(&scalarKernels(), &activeKernels());
    }
    EXPECT_EQ(&before, &activeKernels());
}

} // namespace
} // namespace core
} // namespace assoc
