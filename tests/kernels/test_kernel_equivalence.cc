/**
 * @file
 * Exhaustive scalar-vs-SWAR-vs-AVX2 kernel equivalence.
 *
 * Every table registeredKernels() exposes must agree bit for bit
 * with the scalar reference on every kernel, over a sweep of
 * associativities (every one from 1 to 64), field geometries, all
 * four tag transforms, misaligned plane offsets, all-invalid sets,
 * validity words with stray bits above the set, and sets whose
 * truncated tags collide so the partial-compare step 2 must
 * disambiguate. A vector body that cuts a corner anywhere in this
 * grid fails here, not in a golden diff three layers up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/kernels.h"
#include "core/lookup.h"
#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/transform.h"
#include "core/way_memo.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace assoc {
namespace core {
namespace {

// Plane offsets probed everywhere: 0 keeps whatever alignment the
// allocator gave us, 1 and 3 force element-aligned-only pointers so
// no kernel can get away with assuming 16/32-byte plane alignment.
const unsigned kOffsets[] = {0, 1, 3};
/** Strategy-level associativities (powers of two, as caches have). */
const unsigned kAssocs[] = {1, 2, 4, 8, 16, 32, 64};

/** One synthetic set: a tag plane with a controlled misalignment
 *  and its validity word. */
struct SetPlanes
{
    std::vector<std::uint32_t> tag_buf;
    std::uint32_t *tags;
    std::uint64_t valid = 0;

    SetPlanes(unsigned a, unsigned off)
        : tag_buf(a + off), tags(tag_buf.data() + off)
    {}
};

/** Fill a set from a small tag pool so duplicates are common; about
 *  two ways in three are valid. */
void
fillSet(SetPlanes &s, unsigned a, Pcg32 &rng,
        std::uint32_t tag_mask, bool all_invalid)
{
    // A four-entry pool makes same-tag / same-field collisions the
    // norm rather than a fluke.
    std::uint32_t pool[4];
    for (std::uint32_t &p : pool)
        p = rng.next() & tag_mask;
    s.valid = 0;
    for (unsigned w = 0; w < a; ++w) {
        s.tags[w] = pool[rng.below(4)];
        if (!all_invalid && rng.below(3) != 0)
            s.valid |= std::uint64_t{1} << w;
    }
}

TEST(KernelEquivalence, EqMasksAgreeEverywhere)
{
    const LookupKernels &ref = scalarKernels();
    Pcg32 rng(0x5eed0001, 11);
    for (const LookupKernels *k : registeredKernels()) {
        for (unsigned a = 1; a <= 64; ++a) {
            for (unsigned off : kOffsets) {
                for (int all_invalid = 0; all_invalid < 2;
                     ++all_invalid) {
                    for (int rep = 0; rep < 50; ++rep) {
                        SetPlanes s(a, off);
                        fillSet(s, a, rng, 0xffffu,
                                all_invalid != 0);
                        std::uint32_t needle =
                            (rep & 1) ? s.tags[rng.below(a)]
                                      : (rng.next() & 0xffffu);
                        // Every fourth set carries stray validity
                        // bits above way a, which must not leak
                        // into the mask.
                        std::uint64_t valid = s.valid;
                        if (rep % 4 == 3)
                            valid |= rng.next64() & ~maskBits(a);
                        SCOPED_TRACE(std::string(k->name) +
                                     " a=" + std::to_string(a) +
                                     " off=" + std::to_string(off));
                        const std::uint64_t want =
                            ref.eq_mask(s.tags, valid, a, needle);
                        EXPECT_EQ(want,
                                  k->eq_mask(s.tags, valid, a, needle));
                        EXPECT_EQ(want, k->eq_mask_relaxed(
                                            s.tags, valid, a, needle));
                        EXPECT_EQ(0u, want & ~s.valid);
                        if (all_invalid) {
                            EXPECT_EQ(0u, want);
                        }
                    }
                }
            }
        }
        // The full-width mask boundary: every way matches at a=64.
        SetPlanes s(64, 0);
        for (unsigned w = 0; w < 64; ++w)
            s.tags[w] = 0xabcd;
        EXPECT_EQ(~0ull, k->eq_mask(s.tags, ~0ull, 64, 0xabcd))
            << k->name;
        EXPECT_EQ(~0ull, k->eq_mask_relaxed(s.tags, ~0ull, 64, 0xabcd))
            << k->name;
    }
}

TEST(KernelEquivalence, PartialMaskAllTransformsAllFieldWidths)
{
    // Whole-set calls: every a from 1 to 64 in subsets of every g
    // that divides it with g*k <= t, so subsets sit inside, fill and
    // straddle the vector chunks, and g > 8 gathers its collections.
    const LookupKernels &ref = scalarKernels();
    const TransformKind kinds[] = {TransformKind::None,
                                   TransformKind::XorLow,
                                   TransformKind::Improved,
                                   TransformKind::Swap};
    Pcg32 rng(0x5eed0002, 12);
    for (const LookupKernels *kern : registeredKernels()) {
        for (unsigned t : {8u, 12u, 16u, 20u, 32u}) {
            const std::uint32_t tag_mask =
                static_cast<std::uint32_t>(maskBits(t));
            for (unsigned k = 1; k <= t; ++k) {
                unsigned g_max = t / k; // the g*k <= t ceiling
                for (unsigned g = 1; g <= g_max; ++g) {
                    for (TransformKind kind : kinds) {
                        auto xf = TagTransform::make(kind, t, k);
                        std::vector<std::uint32_t> inc_fields(g);
                        for (unsigned a = g; a <= 64; a += g) {
                            for (unsigned off : kOffsets) {
                                SetPlanes s(a, off);
                                fillSet(s, a, rng, tag_mask, false);
                                std::uint32_t inc =
                                    s.tags[rng.below(a)];
                                for (unsigned l = 0; l < g; ++l)
                                    inc_fields[l] = xf->field(
                                        xf->apply(inc, l), l);
                                // Stray validity bits above way a
                                // must not leak into the mask.
                                const std::uint64_t valid =
                                    s.valid |
                                    (rng.next64() & ~maskBits(a));
                                std::uint64_t want = ref.partial_mask(
                                    s.tags, valid, a, g,
                                    inc_fields.data(), k, kind, *xf);
                                std::uint64_t got = kern->partial_mask(
                                    s.tags, valid, a, g,
                                    inc_fields.data(), k, kind, *xf);
                                EXPECT_EQ(0u, want & ~s.valid);
                                EXPECT_EQ(want, got)
                                    << kern->name << " t=" << t
                                    << " k=" << k << " g=" << g
                                    << " a=" << a << " kind="
                                    << transformKindName(kind)
                                    << " off=" << off;
                            }
                        }
                    }
                }
            }
        }
    }
}

/**
 * Strategy-level equivalence: every lookup strategy must produce the
 * identical (hit, way, probes) triple under every registered table.
 * The sets are drawn from tiny tag pools, so truncated-tag and
 * partial-field collisions (the step-2 disambiguation path) occur
 * constantly.
 */
TEST(KernelEquivalence, StrategiesBitIdenticalUnderEveryTable)
{
    Pcg32 rng(0x5eed0004, 14);
    for (unsigned a : kAssocs) {
        std::vector<std::unique_ptr<LookupStrategy>> strategies;
        strategies.push_back(std::make_unique<TraditionalLookup>());
        strategies.push_back(std::make_unique<NaiveLookup>());
        strategies.push_back(std::make_unique<MruLookup>());
        if (a > 2)
            strategies.push_back(std::make_unique<MruLookup>(2));
        strategies.push_back(
            std::make_unique<MruLookup>(MruLookup::swapping()));
        for (unsigned b : {2u, 3u, a}) {
            strategies.push_back(
                std::make_unique<NaiveLookup>(NaiveLookup::wide(b)));
            strategies.push_back(
                std::make_unique<MruLookup>(MruLookup::wide(b)));
        }
        strategies.push_back(std::make_unique<WayPredictLookup>());
        for (TransformKind kind :
             {TransformKind::None, TransformKind::XorLow,
              TransformKind::Improved, TransformKind::Swap}) {
            PartialConfig pc;
            pc.tag_bits = 16;
            pc.field_bits = 4;
            pc.subsets = a > 4 ? a / 4 : 1;
            pc.transform = kind;
            strategies.push_back(
                std::make_unique<PartialLookup>(pc));
        }

        for (int rep = 0; rep < 200; ++rep) {
            SetPlanes s(a, rep % 3);
            fillSet(s, a, rng, 0xffffu, rep % 17 == 0);
            std::vector<std::uint8_t> order(a);
            for (unsigned w = 0; w < a; ++w)
                order[w] = static_cast<std::uint8_t>(w);
            for (unsigned w = a; w > 1; --w)
                std::swap(order[w - 1], order[rng.below(w)]);

            const std::uint32_t incoming =
                (rep & 1) ? s.tags[rng.below(a)] : (rng.next() & 0xffffu);
            // Built under each table, so the input's compare is that
            // table's eq_mask.
            auto input = [&] {
                return LookupInput(a, s.tags, s.valid, order.data(),
                                   incoming);
            };

            for (const auto &strat : strategies) {
                LookupResult want;
                {
                    ScopedKernelOverride o(scalarKernels());
                    want = strat->lookup(input());
                }
                for (const LookupKernels *k : registeredKernels()) {
                    ScopedKernelOverride o(*k);
                    LookupResult got = strat->lookup(input());
                    EXPECT_EQ(want.hit, got.hit)
                        << strat->name() << " under " << k->name;
                    EXPECT_EQ(want.way, got.way)
                        << strat->name() << " under " << k->name;
                    EXPECT_EQ(want.probes, got.probes)
                        << strat->name() << " under " << k->name;
                }
            }
        }
    }
}

/**
 * Hand-built collision sets: several ways share the incoming tag's
 * partial field but only one (or none) matches the full tag, so the
 * candidate mask alone cannot decide and step 2 must walk the false
 * matches in way order, paying one probe each.
 */
TEST(KernelEquivalence, DuplicateTruncatedTagsForceStepTwo)
{
    // 16-bit tags, k = 2, one subset of g = 8 ways: way w's step-1
    // compare reads field w (bits 2w..2w+1, None transform).
    PartialConfig pc;
    pc.tag_bits = 16;
    pc.field_bits = 2;
    pc.subsets = 1;
    pc.transform = TransformKind::None;
    PartialLookup strat(pc);

    const std::uint32_t inc = 0xbeb5;
    std::uint32_t tags[8];
    std::uint8_t order[8];
    for (unsigned w = 0; w < 8; ++w)
        order[w] = static_cast<std::uint8_t>(w);
    // Ways 0..2: field w agrees with the incoming tag (a bit in a
    // high field is flipped instead), so each is a false candidate
    // costing one step-2 probe. Way 3 is the true match.
    for (unsigned w = 0; w < 3; ++w)
        tags[w] = inc ^ (1u << (2 * (w + 5)));
    tags[3] = inc;
    // Ways 4, 6, 7: field w disagrees — filtered out by step 1.
    for (unsigned w : {4u, 6u, 7u})
        tags[w] = inc ^ (1u << (2 * w));
    // Way 5 would be a candidate, but the line is invalid.
    tags[5] = inc ^ (1u << 2);

    const std::uint64_t valid = 0xffu & ~(1u << 5);

    for (const LookupKernels *k : registeredKernels()) {
        ScopedKernelOverride o(*k);
        LookupResult r =
            strat.lookup(LookupInput(8, tags, valid, order, inc));
        EXPECT_TRUE(r.hit) << k->name;
        EXPECT_EQ(3, r.way) << k->name;
        // 1 step-1 probe + full compares of ways 0,1,2,3.
        EXPECT_EQ(5u, r.probes) << k->name;

        // Flip field 4 of the incoming tag: ways 0..3 stay
        // candidates (their fields live in bits 0..7), way 4 still
        // mismatches, and no full compare succeeds.
        LookupResult miss = strat.lookup(
            LookupInput(8, tags, valid, order, inc ^ (0x3u << 8)));
        EXPECT_FALSE(miss.hit) << k->name;
        // 1 step-1 probe + 4 false full compares (way 5 invalid).
        EXPECT_EQ(5u, miss.probes) << k->name;
    }
}

} // namespace
} // namespace core
} // namespace assoc
