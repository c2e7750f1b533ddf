/**
 * @file
 * A third cache level: the "level two (or higher) caches" the
 * paper's abstract targets for the cheap associativity schemes.
 *
 * ThirdLevelCache implements the level-two's MemorySide: it
 * services level-two read misses (fetch) and dirty evictions
 * (writeBack) with an a-way write-back cache of its own, and
 * re-exposes the L2Observer hook so the same probe meters price
 * lookups at the third level. Its reference stream is the paper's
 * argument taken one level further — twice-filtered, so hit times
 * matter even less and the serial schemes are even more attractive.
 *
 * The write-back optimization generalizes: the level two can retain
 * a way hint for each of its blocks in the level three, so
 * level-two write-backs are priced at zero probes by meters with
 * wb_optimization set (write-backs arrive as L2ReqType::WriteBack
 * views, exactly as at the second level).
 */

#ifndef ASSOC_MEM_THIRD_LEVEL_H
#define ASSOC_MEM_THIRD_LEVEL_H

#include "mem/cache.h"
#include "mem/hierarchy.h"

namespace assoc {
namespace mem {

/** Statistics of the third level. */
struct ThirdLevelStats
{
    std::uint64_t read_ins = 0;
    std::uint64_t read_in_hits = 0;
    std::uint64_t read_in_misses = 0;
    std::uint64_t write_backs = 0;
    std::uint64_t write_back_hits = 0;
    std::uint64_t write_back_misses = 0;

    /** Fraction of level-three requests that miss. */
    double localMissRatio() const;
    /** Fraction of level-three requests that are write-backs. */
    double writeBackFraction() const;
};

/** The level-three cache behind a TwoLevelHierarchy. */
class ThirdLevelCache : public MemorySide
{
  public:
    /**
     * @param l3 geometry of the third level (block size must be
     *        >= the level-two block size).
     * @param l2 geometry of the level two feeding this cache.
     * @param policy victim selection (paper default: LRU).
     */
    ThirdLevelCache(const CacheGeometry &l3, const CacheGeometry &l2,
                    ReplPolicy policy = ReplPolicy::Lru);

    /** Attach a lookup-cost observer (not owned). */
    void addObserver(L2Observer *obs);

    void fetch(BlockAddr l2_block) override;
    void writeBack(BlockAddr l2_block) override;
    void onFlush() override;

    const ThirdLevelStats &stats() const { return stats_; }
    const WriteBackCache &cache() const { return l3_; }

  private:
    BlockAddr l3BlockOf(BlockAddr l2_block) const;
    void access(BlockAddr l3_block, L2ReqType type);

    CacheGeometry l2_geom_;
    WriteBackCache l3_;
    ObserverFanout fanout_; ///< the level three's observers
    ThirdLevelStats stats_;
};

} // namespace mem
} // namespace assoc

#endif // ASSOC_MEM_THIRD_LEVEL_H
