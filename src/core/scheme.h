/**
 * @file
 * Named scheme descriptors: the one description of a lookup
 * strategy. A SchemeSpec turns a scheme kind + parameters into a
 * LookupStrategy / ProbeMeter, shared by the examples, the
 * benchmark harnesses and the --schemes parser (sim/config_parse.h).
 */

#ifndef ASSOC_CORE_SCHEME_H
#define ASSOC_CORE_SCHEME_H

#include <memory>
#include <string>

#include "core/lookup.h"
#include "core/probe_meter.h"
#include "core/transform.h"

namespace assoc {
namespace core {

/**
 * The four implementation approaches of the paper, the way-
 * memoization family (docs/ENERGY.md) layered on top of them, and
 * the variants the paper sketches but does not evaluate: Section
 * 2.1's swapping MRU and Section 1's b-wide (b x t) tag memories.
 */
enum class SchemeKind {
    Traditional,
    Naive,
    Mru,
    Partial,
    WayMemo,
    WayPredict,
    SwapMru,
    WideNaive,
    WideMru,
};

/** Parse "traditional" / "naive" / "mru" / "partial" / "waymemo" /
 *  "waypredict". The swap and wide kinds have no name here: a
 *  waymemo's u= option cannot wrap them (sim/config_parse.h). */
SchemeKind schemeKindFromString(const std::string &s);

/** Printable name. */
const char *schemeKindName(SchemeKind kind);

/** Full description of one scheme instance. */
struct SchemeSpec
{
    SchemeKind kind = SchemeKind::Traditional;

    /** MRU: list length (0 = full list). */
    unsigned mru_list_len = 0;

    /** Partial: field width k, subset count s, tag transform. */
    unsigned partial_k = 4;
    unsigned partial_subsets = 1;
    TransformKind transform = TransformKind::XorLow;

    /** Stored tag width t. */
    unsigned tag_bits = 16;

    /** WideNaive / WideMru: tags read and compared per probe (b). */
    unsigned width = 1;

    /** WayMemo: memo-table entries (power of two). */
    std::uint32_t memo_entries = 64;
    /** WayMemo: region granularity, region = block >> region_bits. */
    unsigned memo_region_bits = 0;
    /** WayMemo: tagged entries (exact-region match) vs untagged. */
    bool memo_tagged = true;
    /** WayMemo: the scheme a memo miss falls back to. The rest of
     *  this spec (mru_list_len, partial_*, tag_bits, width)
     *  parameterizes it; nesting memo schemes is rejected. */
    SchemeKind memo_underlying = SchemeKind::Traditional;

    /**
     * The paper's default partial configuration for associativity
     * @p a: the fewest subsets giving at least @p min_k-bit partial
     * compares, with k using the whole tag width (1, 2, 4 subsets
     * and k = 4 for 4, 8, 16-way with 16-bit tags; k = 8 for 4-way
     * with 32-bit tags).
     */
    static SchemeSpec paperPartial(unsigned a, unsigned tag_bits = 16,
                                   unsigned min_k = 4);

    /** Build the strategy this spec describes. */
    std::unique_ptr<LookupStrategy> makeStrategy() const;

    /** Build a meter around the strategy. */
    std::unique_ptr<ProbeMeter>
    makeMeter(bool wb_optimization = true) const;
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_SCHEME_H
