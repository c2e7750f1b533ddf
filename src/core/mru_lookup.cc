#include "core/mru_lookup.h"

#include <algorithm>
#include <bit>

#include "core/probe_meter.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace core {

MruLookup
MruLookup::wide(unsigned width)
{
    fatalIf(width == 0, "tag-memory width must be positive");
    return MruLookup(0, width, true,
                     "WideMRU-" + std::to_string(width));
}

MruLookup
MruLookup::swapping()
{
    return MruLookup(0, 1, false, "SwapMRU");
}

LookupResult
MruLookup::lookup(const LookupInput &in) const
{
    const unsigned a = in.assoc;
    const unsigned list_len = list_len_ == 0
                                  ? a
                                  : std::min(list_len_, a);

    // The input carries every tag compare as one mask; the scan
    // below only walks bit positions.
    const std::uint64_t e = in.eq;

    // The scan order is the list's ways, most recent first, then the
    // ways the list does not name in ascending way order. pos is the
    // hit's position in it, or its last position on a miss; n its
    // length.
    LookupResult res;
    unsigned pos = 0;
    unsigned n = a;
    std::uint64_t searched = 0; // ways the list names
    for (; pos < list_len; ++pos) {
        const unsigned w = in.mru_order[pos];
        searched |= std::uint64_t{1} << w;
        if ((e >> w) & 1) {
            res.hit = true;
            res.way = static_cast<int>(w);
            break;
        }
    }
    if (!res.hit) {
        // The hit is the lowest eq bit outside the searched set, at
        // the position after every unsearched way below it.
        const std::uint64_t rest = maskBits(a) & ~searched;
        const std::uint64_t rest_hits = e & rest;
        n = list_len + popcount(rest);
        pos = n - 1;
        if (rest_hits != 0) {
            const unsigned w =
                static_cast<unsigned>(std::countr_zero(rest_hits));
            res.hit = true;
            res.way = static_cast<int>(w);
            pos = list_len + popcount(rest & maskBits(w));
        }
    }

    // One probe-equivalent to read the MRU list before any tag can
    // be examined (Section 2.1; none when the blocks are swapped into
    // recency order), then one per group of b tags.
    const unsigned groups = probesThrough(pos, width_, n);
    const unsigned read = std::min(groups * width_, n);
    res.probes = (reads_list_ ? 1 : 0) + groups;
    res.events.list_reads = reads_list_ ? 1 : 0;
    res.events.tag_reads = read;
    res.events.tag_compares = read;
    return res;
}

std::uint64_t
swapMruMoves(const ProbeStats &stats)
{
    return stats.events.tag_reads - stats.metered;
}

} // namespace core
} // namespace assoc
