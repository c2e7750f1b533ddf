/**
 * @file
 * Shared inline kernel bodies (internal).
 *
 * Included by kernels.cc, kernels_avx2.cc and partial_lookup.cc so
 * the portable-SWAR loops and the closed-form transform fields have
 * exactly one definition: the vector ISAs reuse them for their
 * scalar tails and the AVX2 partial_mask vectorizes the same closed
 * forms, so every lane computes bit-identical values.
 */

#ifndef ASSOC_CORE_KERNELS_INL_H
#define ASSOC_CORE_KERNELS_INL_H

#include <atomic>
#include <cstdint>

#include "core/transform.h"
#include "util/bitops.h"

namespace assoc {
namespace core {
namespace kdetail {

/**
 * Field l of apply(tag, l) — the k-bit collection way l's partial
 * compare reads — as a closed form of the GF(2)-linear transforms
 * in transform.cc, with the virtual apply()/field() pair folded
 * away:
 *
 *  - None:     field l of the raw tag.
 *  - XorLow:   apply() XORs field 0 into every higher field, so
 *              field l (l >= 1) is field l of tag ^ tag.
 *  - Improved: field 1 absorbs field 0; fields >= 2 absorb
 *              field 0 ^ field 1, i.e. tag ^ (tag >> k).
 *  - Swap:     apply(tag, slot) rotates the fields by slot, so
 *              collection l of way l always lands on field 0 of
 *              the raw tag.
 *
 * Valid for l < g where g * k <= t (PartialLookup::validate), which
 * bounds every shift below 32 and keeps l inside the transform's
 * field count. Equivalence with the virtual path is enforced by
 * kernelSelfCheck() and the tests/kernels suite.
 */
inline std::uint32_t
partialStoredField(std::uint32_t tag, unsigned l, unsigned k,
                   TransformKind kind)
{
    const std::uint32_t m = static_cast<std::uint32_t>(maskBits(k));
    switch (kind) {
      case TransformKind::None:
        return (tag >> (l * k)) & m;
      case TransformKind::XorLow:
        return ((tag >> (l * k)) ^ (l != 0 ? tag : 0u)) & m;
      case TransformKind::Improved: {
        std::uint32_t x =
            l == 0 ? 0u : (l == 1 ? tag : tag ^ (tag >> k));
        return ((tag >> (l * k)) ^ x) & m;
      }
      case TransformKind::Swap:
        return tag & m;
    }
    return 0; // unreachable
}

/** eq_mask through relaxed atomic element loads (seqlock
 *  optimistic readers race per-set-serialized writers). */
inline std::uint64_t
swarEqMaskRelaxed(const std::uint32_t *tags, std::uint64_t valid,
                  unsigned a, std::uint32_t needle)
{
    std::uint64_t m = 0;
    for (unsigned w = 0; w < a; ++w) {
        // atomic_ref over const is C++26; mirror mem/cache.cc's
        // planeLoad const_cast (the referent is never written here).
        std::uint32_t v =
            std::atomic_ref<std::uint32_t>(
                const_cast<std::uint32_t &>(tags[w]))
                .load(std::memory_order_relaxed);
        m |= static_cast<std::uint64_t>(v == needle) << w;
    }
    return m & valid & maskBits(a);
}

/** Closed-form partial_mask body (SWAR table): way w reads
 *  collection l = w mod g, counted up without a division. */
inline std::uint64_t
swarPartialMask(const std::uint32_t *tags, std::uint64_t valid,
                unsigned a, unsigned g, const std::uint32_t *inc_fields,
                unsigned k, TransformKind kind)
{
    std::uint64_t m = 0;
    for (unsigned w = 0, l = 0; w < a; ++w) {
        m |= static_cast<std::uint64_t>(
                 partialStoredField(tags[w], l, k, kind) ==
                 inc_fields[l])
             << w;
        if (++l == g)
            l = 0;
    }
    return m & valid & maskBits(a);
}

} // namespace kdetail
} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_KERNELS_INL_H
