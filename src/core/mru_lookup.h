/**
 * @file
 * The serial scan in recency order (Section 2.1, Figure 2a): read
 * the per-set MRU list (one probe), then scan stored tags from most-
 * to least-recently used, b tags per probe.
 *
 * With a *reduced* list of L < a entries (Figure 5), only the L
 * most-recent positions are known; the remaining ways are scanned
 * afterwards in an arbitrary (here: ascending way-index) order.
 *
 * The same scan prices two variants the paper sketches but does not
 * evaluate:
 *  - WideMRU-b, Section 1's b x t tag memory on the MRU order: one
 *    probe for the list, then groups of b tags in recency order.
 *  - SwapMRU, Section 2.1's swapping implementation: the cache keeps
 *    the most-recently-used block in frame 0, the next in frame 1,
 *    and so on, swapping blocks (tags and data) after each access.
 *    Scanning frames in physical order is then the recency order
 *    with no list to read, so a hit at MRU distance d costs d probes
 *    and a miss a (list MRU: 1 + d and 1 + a). The catch the paper
 *    points out is the block moves, "not a viable implementation
 *    option for most set-associative caches" beyond 2-way; they are
 *    derived from the meter's stats (swapMruMoves), so the viability
 *    argument can be quantified (see bench_ablation) without the
 *    strategy keeping any state.
 */

#ifndef ASSOC_CORE_MRU_LOOKUP_H
#define ASSOC_CORE_MRU_LOOKUP_H

#include "core/lookup.h"

namespace assoc {
namespace core {

struct ProbeStats;

class MruLookup : public LookupStrategy
{
  public:
    /**
     * @param list_len entries in the MRU list; 0 means a full list
     *        (as long as the associativity).
     */
    explicit MruLookup(unsigned list_len = 0)
        : MruLookup(list_len, 1, true,
                    list_len == 0 ? "MRU"
                                  : "MRU-" + std::to_string(list_len))
    {}

    /** The b-wide scan "WideMRU-b": a full list, then @p width
     *  tags per probe. */
    static MruLookup wide(unsigned width);

    /** The swapping scan "SwapMRU": no list to read. */
    static MruLookup swapping();

    LookupResult lookup(const LookupInput &in) const override;

    std::string name() const override { return name_; }

    unsigned listLen() const { return list_len_; }

    /** Tags read per probe (b). */
    unsigned width() const { return width_; }

    /** False for the swapping scan, which has no list to read. */
    bool readsList() const { return reads_list_; }

  private:
    MruLookup(unsigned list_len, unsigned width, bool reads_list,
              std::string name)
        : list_len_(list_len), width_(width), reads_list_(reads_list),
          name_(std::move(name))
    {}

    unsigned list_len_;
    unsigned width_;
    bool reads_list_;
    std::string name_;
};

/**
 * Block moves the swap scheme performs to restore MRU order, from
 * the stats of a swapping MruLookup's meter. A lookup reads one tag
 * per probe; a hit at MRU distance d reads d tags and moves the
 * d - 1 blocks in front of it down one frame, and a miss reads all
 * a tags and moves the a - 1 survivors. So every tag read after a
 * lookup's first is one move: events.tag_reads - metered.
 */
std::uint64_t swapMruMoves(const ProbeStats &stats);

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_MRU_LOOKUP_H
