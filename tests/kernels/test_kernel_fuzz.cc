/**
 * @file
 * Randomized kernel property fuzz (the differential half of
 * tests/kernels; the exhaustive grid lives in
 * test_kernel_equivalence.cc).
 *
 * Each case is a pure function of (seed, index), exactly like
 * check::sampleCase: a random set geometry, tag planes drawn from a
 * small pool (collisions everywhere), a validity pattern, and an MRU
 * permutation. For each case we require
 *
 *  - every registered kernel table to produce the scalar table's
 *    candidate masks (eq and partial, every transform), and
 *  - the MRU and partial-compare strategies, run under every table,
 *    to produce the (hit, way, probes) triple of an independent
 *    straight-line reimplementation of the paper's serial scans
 *    kept in this file — so a bug shared by all kernel tables (or
 *    by the strategy rewrite itself) is still caught.
 *
 * A failure prints a one-line repro in the fuzz_diff convention:
 *   ASSOC_KERNEL_FUZZ_SEED=S ASSOC_KERNEL_FUZZ_INDEX=I <test>
 * Environment knobs: ASSOC_KERNEL_FUZZ_CASES (default 1000000),
 * ASSOC_KERNEL_FUZZ_SEED, ASSOC_KERNEL_FUZZ_INDEX (run one case).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/transform.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace assoc {
namespace core {
namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0)
                                      : fallback;
}

/** One generated case; a pure function of (seed, index). */
struct FuzzSet
{
    unsigned assoc;
    unsigned tag_bits;
    std::uint32_t incoming;
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> order; // a permutation of way indices
};

FuzzSet
sampleSet(std::uint64_t seed, std::uint64_t index)
{
    // Distinct streams per index: cases are independent draws and
    // any single index can be replayed in isolation.
    Pcg32 rng(seed, 0x6b65726e ^ index);
    static const unsigned assocs[] = {1, 2, 4, 5, 8, 13, 16};
    static const unsigned tbits[] = {8, 12, 16, 20, 32};
    FuzzSet s;
    s.assoc = assocs[rng.below(7)];
    s.tag_bits = tbits[rng.below(5)];
    std::uint32_t mask =
        static_cast<std::uint32_t>(maskBits(s.tag_bits));
    std::uint32_t pool[4];
    for (std::uint32_t &p : pool)
        p = rng.next() & mask;
    s.tags.resize(s.assoc);
    s.valid.resize(s.assoc);
    s.order.resize(s.assoc);
    for (unsigned w = 0; w < s.assoc; ++w) {
        s.tags[w] = pool[rng.below(4)];
        s.valid[w] = static_cast<std::uint8_t>(rng.below(4) != 0);
        s.order[w] = static_cast<std::uint8_t>(w);
    }
    for (unsigned w = s.assoc; w > 1; --w)
        std::swap(s.order[w - 1], s.order[rng.below(w)]);
    s.incoming = rng.below(2) ? s.tags[rng.below(s.assoc)]
                              : (rng.next() & mask);
    return s;
}

// ---------------------------------------------------------------
// Independent references: the paper's serial scans, written as the
// original strategy code wrote them (branching loops, transform
// virtuals), with no kernel or mask in sight.
// ---------------------------------------------------------------

LookupResult
refMru(const FuzzSet &s, unsigned list_len)
{
    unsigned len = list_len == 0 ? s.assoc : list_len;
    if (len > s.assoc)
        len = s.assoc;
    LookupResult r;
    r.probes = 1; // reading the list
    std::uint64_t searched = 0;
    for (unsigned i = 0; i < len; ++i) {
        unsigned w = s.order[i];
        searched |= std::uint64_t{1} << w;
        ++r.probes;
        if (s.valid[w] && s.tags[w] == s.incoming) {
            r.hit = true;
            r.way = static_cast<int>(w);
            return r;
        }
    }
    for (unsigned w = 0; w < s.assoc; ++w) {
        if ((searched >> w) & 1)
            continue;
        ++r.probes;
        if (s.valid[w] && s.tags[w] == s.incoming) {
            r.hit = true;
            r.way = static_cast<int>(w);
            return r;
        }
    }
    return r;
}

LookupResult
refPartial(const FuzzSet &s, const TagTransform &xf, unsigned subsets)
{
    unsigned g = s.assoc / subsets;
    LookupResult r;
    for (unsigned si = 0; si < subsets; ++si) {
        unsigned base = si * g;
        ++r.probes; // step 1: one parallel field read
        for (unsigned l = 0; l < g; ++l) {
            unsigned w = base + l;
            if (!s.valid[w])
                continue;
            std::uint32_t stored_f =
                xf.field(xf.apply(s.tags[w], l), l);
            std::uint32_t inc_f =
                xf.field(xf.apply(s.incoming, l), l);
            if (stored_f != inc_f)
                continue;
            ++r.probes; // step 2: one full compare
            if (xf.apply(s.tags[w], l) == xf.apply(s.incoming, l)) {
                r.hit = true;
                r.way = static_cast<int>(w);
                return r;
            }
        }
    }
    return r;
}

/** Partial configs exercised per case (s must divide the assoc). */
struct PartialGeom
{
    unsigned k;
    TransformKind kind;
};
const PartialGeom kGeoms[] = {
    {1, TransformKind::None},     {4, TransformKind::XorLow},
    {4, TransformKind::Improved}, {2, TransformKind::Swap},
};
const unsigned kTagBits[] = {8, 12, 16, 20, 32};
const unsigned kSubsets[] = {1, 2, 4};

unsigned
tagBitsIndex(unsigned t)
{
    for (unsigned i = 0; i < 5; ++i)
        if (kTagBits[i] == t)
            return i;
    ADD_FAILURE() << "unknown tag width " << t;
    return 0;
}

/** Transforms and strategies are cached across the million cases —
 *  constructing them per case would dominate the fuzz loop. */
const TagTransform &
cachedTransform(unsigned geo, unsigned t_idx)
{
    static std::unique_ptr<TagTransform> grid[4][5];
    auto &slot = grid[geo][t_idx];
    if (!slot)
        slot = TagTransform::make(kGeoms[geo].kind, kTagBits[t_idx],
                                  kGeoms[geo].k);
    return *slot;
}

PartialLookup &
cachedPartial(unsigned geo, unsigned s_idx, unsigned t_idx)
{
    static std::unique_ptr<PartialLookup> grid[4][3][5];
    auto &slot = grid[geo][s_idx][t_idx];
    if (!slot) {
        PartialConfig pc;
        pc.tag_bits = kTagBits[t_idx];
        pc.field_bits = kGeoms[geo].k;
        pc.subsets = kSubsets[s_idx];
        pc.transform = kGeoms[geo].kind;
        slot = std::make_unique<PartialLookup>(pc);
    }
    return *slot;
}

std::string
reproLine(std::uint64_t seed, std::uint64_t index)
{
    return "repro: ASSOC_KERNEL_FUZZ_SEED=" + std::to_string(seed) +
           " ASSOC_KERNEL_FUZZ_INDEX=" + std::to_string(index) +
           " test_kernels --gtest_filter=KernelFuzz.*";
}

void
runCase(std::uint64_t seed, std::uint64_t index,
        const std::vector<const LookupKernels *> &tables)
{
    FuzzSet s = sampleSet(seed, index);
    const LookupKernels &ref = scalarKernels();

    // The cache's form of the valid flags: one word, bit w = way w.
    std::uint64_t valid = 0;
    for (unsigned w = 0; w < s.assoc; ++w)
        valid |= static_cast<std::uint64_t>(s.valid[w] != 0) << w;

    // Candidate masks: eq every table against scalar (partial masks
    // are held through the strategy below).
    std::uint64_t want_eq =
        ref.eq_mask(s.tags.data(), valid, s.assoc, s.incoming);
    for (const LookupKernels *k : tables) {
        ASSERT_EQ(want_eq,
                  k->eq_mask(s.tags.data(), valid, s.assoc, s.incoming))
            << k->name << "\n  " << reproLine(seed, index);
        ASSERT_EQ(want_eq, k->eq_mask_relaxed(s.tags.data(), valid,
                                              s.assoc, s.incoming))
            << k->name << "\n  " << reproLine(seed, index);
    }

    // MRU: strategy under every table vs the straight-line scan.
    for (unsigned list_len : {0u, 2u}) {
        if (list_len >= s.assoc && list_len != 0)
            continue;
        LookupResult want = refMru(s, list_len);
        MruLookup strat(list_len);
        for (const LookupKernels *k : tables) {
            ScopedKernelOverride o(*k);
            // Built under the override: the input's compare is the
            // table's eq_mask.
            LookupInput in(s.assoc, s.tags.data(), valid, s.order.data(),
                           s.incoming);
            LookupResult got = strat.lookup(in);
            ASSERT_TRUE(want.hit == got.hit && want.way == got.way &&
                        want.probes == got.probes)
                << "MRU(" << list_len << ") under " << k->name
                << ": want (" << want.hit << "," << want.way << ","
                << want.probes << ") got (" << got.hit << ","
                << got.way << "," << got.probes << ")\n  "
                << reproLine(seed, index);
        }
    }

    // Partial: pick subset counts that divide a with g*k <= t.
    unsigned t_idx = tagBitsIndex(s.tag_bits);
    for (unsigned geo = 0; geo < 4; ++geo) {
        for (unsigned s_idx = 0; s_idx < 3; ++s_idx) {
            unsigned subsets = kSubsets[s_idx];
            if (s.assoc % subsets != 0)
                continue;
            unsigned g = s.assoc / subsets;
            if (g * kGeoms[geo].k > s.tag_bits)
                continue;
            const TagTransform &xf = cachedTransform(geo, t_idx);
            LookupResult want = refPartial(s, xf, subsets);

            PartialLookup &strat = cachedPartial(geo, s_idx, t_idx);
            for (const LookupKernels *k : tables) {
                ScopedKernelOverride o(*k);
                LookupInput in(s.assoc, s.tags.data(), valid,
                               s.order.data(), s.incoming);
                LookupResult got = strat.lookup(in);
                ASSERT_TRUE(want.hit == got.hit &&
                            want.way == got.way &&
                            want.probes == got.probes)
                    << "Partial(k=" << kGeoms[geo].k
                    << ",s=" << subsets << ","
                    << transformKindName(kGeoms[geo].kind)
                    << ") under " << k->name << ": want ("
                    << want.hit << "," << want.way << ","
                    << want.probes << ") got (" << got.hit << ","
                    << got.way << "," << got.probes << ")\n  "
                    << reproLine(seed, index);
            }
        }
    }
}

TEST(KernelFuzz, MasksAndProbeCountsMatchReference)
{
    const std::uint64_t seed =
        envU64("ASSOC_KERNEL_FUZZ_SEED", 0x6b65726e656c31ULL);
    const std::uint64_t cases =
        envU64("ASSOC_KERNEL_FUZZ_CASES", 1000000);
    const std::uint64_t only =
        envU64("ASSOC_KERNEL_FUZZ_INDEX", ~0ull);
    std::vector<const LookupKernels *> tables = registeredKernels();

    if (only != ~0ull) {
        runCase(seed, only, tables);
        return;
    }
    for (std::uint64_t i = 0; i < cases; ++i) {
        runCase(seed, i, tables);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace core
} // namespace assoc
