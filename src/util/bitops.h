/**
 * @file
 * Small bit-manipulation helpers used throughout the cache models.
 */

#ifndef ASSOC_UTIL_BITOPS_H
#define ASSOC_UTIL_BITOPS_H

#include <bit>
#include <cstdint>

#include "util/logging.h"

namespace assoc {

/** True iff @p x is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * Integer base-2 logarithm of a power of two.
 * @pre isPow2(x)
 */
inline unsigned
log2i(std::uint64_t x)
{
    panicIf(!isPow2(x), "log2i: argument not a power of two");
    return static_cast<unsigned>(std::countr_zero(x));
}

/** Ceiling of log2 (log2Ceil(1) == 0, log2Ceil(3) == 2). */
inline unsigned
log2Ceil(std::uint64_t x)
{
    panicIf(x == 0, "log2Ceil: argument is zero");
    return static_cast<unsigned>(64 - std::countl_zero(x - 1));
}

/** A mask with the low @p bits bits set; bits may be 0..64. */
constexpr std::uint64_t
maskBits(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << bits) - 1);
}

/** Extract @p len bits of @p x starting at bit @p lo. */
constexpr std::uint64_t
bitField(std::uint64_t x, unsigned lo, unsigned len)
{
    return (x >> lo) & maskBits(len);
}

/**
 * Population count, inline and branch-free: the SWAR sum of bit
 * pairs, nibbles and bytes, gathered by one multiply. std::popcount
 * compiles to a libgcc call on a baseline x86-64 target (no POPCNT),
 * which the lookup scans pay on every miss.
 */
constexpr unsigned
popcount(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

} // namespace assoc

#endif // ASSOC_UTIL_BITOPS_H
