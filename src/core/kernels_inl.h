/**
 * @file
 * Shared inline kernel bodies (internal).
 *
 * Included by kernels.cc, kernels_avx2.cc and partial_lookup.cc so
 * the portable-SWAR loops and the closed-form transform fields have
 * exactly one definition: the vector ISAs reuse these for their
 * scalar tails, which guarantees chunk-boundary and tail lanes
 * compute bit-identical values.
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

/** eq_mask_bits through relaxed atomic element loads (seqlock
 *  optimistic readers race per-set-serialized writers). */
inline std::uint64_t
swarEqMaskBitsRelaxed(const std::uint32_t *vals,
                      std::uint64_t valid_bits, unsigned a,
                      std::uint32_t needle)
{
    std::uint64_t m = 0;
    for (unsigned w = 0; w < a; ++w) {
        // atomic_ref over const is C++26; mirror mem/cache.cc's
        // planeLoad const_cast (the referent is never written here).
        std::uint32_t v =
            std::atomic_ref<std::uint32_t>(
                const_cast<std::uint32_t &>(vals[w]))
                .load(std::memory_order_relaxed);
        m |= static_cast<std::uint64_t>(v == needle) << w;
    }
    return m & valid_bits & maskBits(a);
}

/** Closed-form partial_mask body (SWAR table + vector tails). */
inline std::uint64_t
swarPartialMask(const std::uint32_t *tags, const std::uint8_t *valid,
                unsigned g, const std::uint32_t *inc_fields,
                unsigned k, TransformKind kind)
{
    std::uint64_t m = 0;
    for (unsigned l = 0; l < g; ++l)
        m |= static_cast<std::uint64_t>(
                 static_cast<unsigned>(valid[l] != 0) &
                 static_cast<unsigned>(
                     partialStoredField(tags[l], l, k, kind) ==
                     inc_fields[l]))
             << l;
    return m;
}

/** Bit -> byte spread, eight bits per step: replicate the byte,
 *  keep bit j in byte j, then normalize nonzero bytes to 1. */
inline void
swarExpandBits(std::uint64_t bits, unsigned n, std::uint8_t *out)
{
    unsigned i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t x = ((bits >> i) & 0xff) * 0x0101010101010101ULL;
        x &= 0x8040201008040201ULL;
        x = ((x + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
        for (unsigned j = 0; j < 8; ++j)
            out[i + j] = static_cast<std::uint8_t>((x >> (8 * j)) & 1);
    }
    for (; i < n; ++i)
        out[i] = static_cast<std::uint8_t>((bits >> i) & 1);
}

/** Nibble -> byte spread of one packed order word (n <= 16). */
inline void
swarExpandNibbles(std::uint64_t word, unsigned n, std::uint8_t *out)
{
    unsigned i = 0;
    for (; i + 8 <= n; i += 8) {
        // Spread the 8 nibbles of one 32-bit half across a 64-bit
        // word (a shift-interleave PDEP substitute), byte j =
        // nibble j.
        std::uint64_t x = (word >> (4 * i)) & 0xffffffffULL;
        x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
        x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
        x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
        for (unsigned j = 0; j < 8; ++j)
            out[i + j] =
                static_cast<std::uint8_t>((x >> (8 * j)) & 0xf);
    }
    for (; i < n; ++i)
        out[i] = static_cast<std::uint8_t>((word >> (4 * i)) & 0xf);
}

/** Uniform right-shift of a tag plane. */
inline void
swarShiftTags(const std::uint32_t *in, unsigned n, unsigned shift,
              std::uint32_t *out)
{
    for (unsigned i = 0; i < n; ++i)
        out[i] = in[i] >> shift;
}

} // namespace kdetail
} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_KERNELS_INL_H
