#include "core/lookup.h"

#include <algorithm>
#include <bit>

#include "core/kernels.h"
#include "util/logging.h"

namespace assoc {
namespace core {

LookupInput::LookupInput(unsigned assoc, const std::uint32_t *stored_tags,
                         std::uint64_t valid,
                         const std::uint8_t *mru_order,
                         std::uint32_t incoming_tag,
                         std::uint32_t block_addr, std::uint32_t set)
    : assoc(assoc), stored_tags(stored_tags), valid(valid),
      mru_order(mru_order), incoming_tag(incoming_tag),
      block_addr(block_addr), set(set),
      eq(activeKernels().eq_mask(stored_tags, valid, assoc,
                                 incoming_tag))
{}

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
    // The first match in way order is the eq mask's lowest bit.
    const std::uint64_t e = in.eq;
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
