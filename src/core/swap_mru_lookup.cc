#include "core/swap_mru_lookup.h"

namespace assoc {
namespace core {

LookupResult
SwapMruLookup::lookup(const LookupInput &in) const
{
    // The physical frames hold blocks in MRU order, so scanning
    // frame 0, 1, ... is exactly scanning the recency order. We
    // price it by walking the simulator's recency order directly
    // (the simulator does not physically swap).
    LookupResult res;
    for (unsigned i = 0; i < in.assoc; ++i) {
        unsigned w = in.mru_order[i];
        ++res.probes;
        ++res.events.tag_reads;
        ++res.events.tag_compares;
        if (in.valid[w] && in.stored_tags[w] == in.incoming_tag) {
            res.hit = true;
            res.way = static_cast<int>(w);
            return res;
        }
    }
    return res;
}

std::uint64_t
swapMruMoves(const ProbeStats &stats)
{
    return stats.events.tag_reads - stats.metered;
}

} // namespace core
} // namespace assoc
