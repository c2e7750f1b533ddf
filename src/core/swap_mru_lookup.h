/**
 * @file
 * The *swapping* MRU implementation sketched in Section 2.1.
 *
 * Instead of storing an MRU list, the cache physically keeps the
 * most-recently-used block in frame 0, the second most-recent in
 * frame 1, and so on, swapping blocks (tags and data) after each
 * access. Lookup then scans frames in physical order — no list
 * read is needed, saving the MRU scheme's extra probe:
 *
 *   hit at MRU distance d  ->  d probes       (list MRU: 1 + d)
 *   miss                   ->  a probes       (list MRU: 1 + a)
 *
 * The catch the paper points out: tags and data must be swapped
 * between consecutive accesses, which is "not a viable
 * implementation option for most set-associative caches" beyond
 * 2-way. This class prices the lookups; the block moves are derived
 * from its meter's stats (swapMruMoves), so the viability argument
 * can be quantified (see bench_ablation) without the strategy
 * keeping any state.
 */

#ifndef ASSOC_CORE_SWAP_MRU_LOOKUP_H
#define ASSOC_CORE_SWAP_MRU_LOOKUP_H

#include "core/lookup.h"
#include "core/probe_meter.h"

namespace assoc {
namespace core {

class SwapMruLookup : public LookupStrategy
{
  public:
    SwapMruLookup() = default;

    LookupResult lookup(const LookupInput &in) const override;

    std::string name() const override { return "SwapMRU"; }
};

/**
 * Block moves the swap scheme performs to restore MRU order, from
 * the stats of a SwapMruLookup's meter. A lookup reads one tag per
 * probe; a hit at MRU distance d reads d tags and moves the d - 1
 * blocks in front of it down one frame, and a miss reads all a tags
 * and moves the a - 1 survivors. So every tag read after a lookup's
 * first is one move: events.tag_reads - metered.
 */
std::uint64_t swapMruMoves(const ProbeStats &stats);

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_SWAP_MRU_LOOKUP_H
