/**
 * @file
 * FNV-1a 64-bit hashing and 16-digit hex formatting: the one
 * implementation behind the fuzz and svc digests, the journal's
 * spec hash and per-entry digests, and trace_pack's replay digest.
 * Every value is platform-independent, so digests printed by one
 * build compare against another's and old journals still resume.
 */

#ifndef ASSOC_UTIL_FNV_H
#define ASSOC_UTIL_FNV_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace assoc {

/** FNV-1a 64-bit offset basis: the start value of a digest chain. */
constexpr std::uint64_t kFnvInit = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit prime. */
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold one byte into FNV-1a digest @p h. */
inline void
fnvByte(std::uint64_t &h, std::uint8_t b)
{
    h = (h ^ b) * kFnvPrime;
}

/** Fold @p v into @p h as 8 little-endian bytes. */
inline void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        fnvByte(h, static_cast<std::uint8_t>(v >> (8 * i)));
}

/** FNV-1a digest of the bytes of @p s. */
inline std::uint64_t
fnvString(std::string_view s)
{
    std::uint64_t h = kFnvInit;
    for (char c : s)
        fnvByte(h, static_cast<std::uint8_t>(c));
    return h;
}

/** @p v as 16 lower-case hex digits, zero-padded ("%016llx"). */
inline std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace assoc

#endif // ASSOC_UTIL_FNV_H
