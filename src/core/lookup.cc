#include "core/lookup.h"

#include <algorithm>
#include <bit>

#include "core/kernels.h"
#include "util/logging.h"

namespace assoc {
namespace core {

NaiveLookup
NaiveLookup::wide(unsigned width)
{
    fatalIf(width == 0, "tag-memory width must be positive");
    return NaiveLookup(width, "WideNaive-" + std::to_string(width));
}

LookupResult
NaiveLookup::lookup(const LookupInput &in) const
{
    const unsigned a = in.assoc;
    const unsigned b = width_ == 0 ? a : width_;
    // Every tag compare at once, as one kernel eq mask: the first
    // match in way order is its lowest set bit.
    const std::uint64_t e = activeKernels().eq_mask(
        in.stored_tags, in.valid, a, in.incoming_tag);
    LookupResult res;
    unsigned last = a - 1; // a miss reads through the last way
    if (e != 0) {
        last = static_cast<unsigned>(std::countr_zero(e));
        res.hit = true;
        res.way = static_cast<int>(last);
    }
    res.probes = probesThrough(last, b, a);
    // Each probe reads and compares its group's tags; the last
    // group may be short.
    const unsigned read = std::min(res.probes * b, a);
    res.events.tag_reads = read;
    res.events.tag_compares = read;
    return res;
}

} // namespace core
} // namespace assoc
