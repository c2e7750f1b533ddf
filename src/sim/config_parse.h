/**
 * @file
 * Textual configuration parsing for command-line drivers.
 *
 * Cache specs use the paper's notation, optionally extended with an
 * associativity: "16K-16" (direct-mapped), "256K-32:4" (4-way),
 * "1M-64:8". Sizes accept K/M suffixes or plain byte counts.
 *
 * Scheme specs are comma-separated lists of:
 *   traditional | naive | mru | mru:<len> | swapmru |
 *   widenaive:<b> | widemru:<b> |
 *   partial | partial:k=<k>;s=<s>;tr=<none|xor|improved|swap> |
 *   waypredict | waymemo | waymemo:e=<entries>;r=<region_bits>;
 *   tag=<0|1>;u=<traditional|naive|mru|partial>
 * ("partial" alone uses the paper's rule for the current
 * associativity and tag width; "waymemo" alone memoizes per block
 * with 64 tagged entries over a traditional lookup — see
 * docs/ENERGY.md). Every entry becomes one core::SchemeSpec: the
 * swap and wide variants are SchemeKinds like the rest, with b in
 * SchemeSpec::width.
 */

#ifndef ASSOC_SIM_CONFIG_PARSE_H
#define ASSOC_SIM_CONFIG_PARSE_H

#include <string>
#include <vector>

#include "core/scheme.h"
#include "mem/cache.h"
#include "mem/geometry.h"

namespace assoc {
namespace sim {

/** Parse "256K-32:4" into a CacheGeometry; fatal() on bad input. */
mem::CacheGeometry parseCacheSpec(const std::string &spec);

/** Parse a byte size with optional K/M suffix ("256K", "1M"). */
std::uint32_t parseSize(const std::string &text);

/**
 * Parse a comma-separated scheme list into one SchemeSpec per entry
 * (build each one's meter with SchemeSpec::makeMeter).
 * @param assoc level-two associativity (for "partial").
 * @param tag_bits stored tag width (propagated to every entry).
 */
std::vector<core::SchemeSpec> parseSchemeList(const std::string &list,
                                              unsigned assoc,
                                              unsigned tag_bits);

/** Parse "lru" / "fifo" / "random". */
mem::ReplPolicy parseReplPolicy(const std::string &text);

} // namespace sim
} // namespace assoc

#endif // ASSOC_SIM_CONFIG_PARSE_H
