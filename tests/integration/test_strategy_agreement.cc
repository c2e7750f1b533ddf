/**
 * @file
 * Fuzz-style property test: every lookup strategy must agree with
 * the traditional (parallel) lookup on *what* it finds — same
 * hit/miss verdict and same way — whenever tags are alias-free.
 * They may only differ in how many probes they spend. Runs over
 * thousands of random set states at several associativities.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/lookup.h"
#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/scheme.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace assoc {
namespace core {
namespace {

struct RandomSet
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> order;
    std::uint32_t incoming;
    int true_way; // -1 when the incoming tag is absent

    RandomSet(unsigned a, Pcg32 &rng, unsigned tag_bits)
        : tags(a), valid(a), order(a)
    {
        std::uint32_t mask =
            static_cast<std::uint32_t>(maskBits(tag_bits));
        // Distinct valid tags (alias-free by construction).
        for (unsigned w = 0; w < a; ++w) {
            bool dup;
            do {
                tags[w] = rng.next() & mask;
                dup = false;
                for (unsigned v = 0; v < w; ++v)
                    dup |= tags[v] == tags[w];
            } while (dup);
            valid[w] = rng.chance(0.85) ? 1 : 0;
        }
        // Random recency permutation (Fisher-Yates).
        for (unsigned w = 0; w < a; ++w)
            order[w] = static_cast<std::uint8_t>(w);
        for (unsigned w = a - 1; w > 0; --w)
            std::swap(order[w], order[rng.below(w + 1)]);

        if (rng.chance(0.7)) {
            unsigned w = rng.below(a);
            incoming = tags[w];
            true_way = valid[w] ? static_cast<int>(w) : -1;
        } else {
            do {
                incoming = rng.next() & mask;
                true_way = -1;
                for (unsigned w = 0; w < a; ++w)
                    if (tags[w] == incoming && valid[w])
                        true_way = static_cast<int>(w);
            } while (true_way >= 0);
        }
    }

    LookupInput
    input() const
    {
        // The 0/1 flags as the cache keeps them: one word.
        std::uint64_t word = 0;
        for (std::size_t w = 0; w < valid.size(); ++w)
            word |= std::uint64_t{valid[w] != 0} << w;
        return LookupInput(static_cast<unsigned>(tags.size()),
                           tags.data(), word, order.data(),
                           incoming);
    }
};

class StrategyAgreement : public ::testing::TestWithParam<unsigned>
{
  protected:
    std::vector<std::unique_ptr<LookupStrategy>>
    allStrategies(unsigned a) const
    {
        std::vector<std::unique_ptr<LookupStrategy>> out;
        out.push_back(std::make_unique<TraditionalLookup>());
        out.push_back(std::make_unique<NaiveLookup>());
        out.push_back(std::make_unique<MruLookup>());
        out.push_back(std::make_unique<MruLookup>(2));
        out.push_back(
            std::make_unique<MruLookup>(MruLookup::swapping()));
        out.push_back(
            std::make_unique<NaiveLookup>(NaiveLookup::wide(2)));
        out.push_back(std::make_unique<MruLookup>(MruLookup::wide(2)));
        for (TransformKind tr :
             {TransformKind::None, TransformKind::XorLow,
              TransformKind::Improved, TransformKind::Swap}) {
            SchemeSpec spec = SchemeSpec::paperPartial(a, 16);
            PartialConfig cfg;
            cfg.tag_bits = spec.tag_bits;
            cfg.field_bits = spec.partial_k;
            cfg.subsets = spec.partial_subsets;
            cfg.transform = tr;
            out.push_back(std::make_unique<PartialLookup>(cfg));
        }
        return out;
    }
};

TEST_P(StrategyAgreement, AllSchemesAgreeOnHitAndWay)
{
    const unsigned a = GetParam();
    Pcg32 rng(0xA9CE + a);
    auto strategies = allStrategies(a);
    for (int trial = 0; trial < 3000; ++trial) {
        RandomSet set(a, rng, 16);
        LookupInput in = set.input();
        for (const auto &strat : strategies) {
            LookupResult r = strat->lookup(in);
            ASSERT_EQ(r.hit, set.true_way >= 0)
                << strat->name() << " trial " << trial;
            if (r.hit) {
                ASSERT_EQ(r.way, set.true_way)
                    << strat->name() << " trial " << trial;
            }
        }
    }
}

TEST_P(StrategyAgreement, ProbeBoundsHoldOnRandomStates)
{
    const unsigned a = GetParam();
    Pcg32 rng(0xB0B + a);
    auto strategies = allStrategies(a);
    for (int trial = 0; trial < 3000; ++trial) {
        RandomSet set(a, rng, 16);
        LookupInput in = set.input();
        for (const auto &strat : strategies) {
            LookupResult r = strat->lookup(in);
            ASSERT_GE(r.probes, 1u) << strat->name();
            // No scheme may ever exceed one list read plus one
            // step-1 probe per subset plus a full compares.
            ASSERT_LE(r.probes, 1 + a + a) << strat->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, StrategyAgreement,
                         ::testing::Values(2u, 4u, 8u, 16u),
                         [](const ::testing::TestParamInfo<unsigned>
                                &info) {
                             return std::string("a").append(
                                 std::to_string(info.param));
                         });

} // namespace
} // namespace core
} // namespace assoc
