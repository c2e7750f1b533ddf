/**
 * @file
 * Way memoization and way prediction: the energy-era descendants of
 * the paper's serial-probe schemes (Ishihara & Fallah, PAPERS.md).
 *
 * Both strategies spend a tiny side structure to avoid tag probes:
 *
 *  - WayMemoLookup keeps a memo table indexed by *region* (the block
 *    address right-shifted by region_bits). A valid entry names the
 *    way that region's block occupied the last time it hit; when the
 *    entry is still correct the access skips every tag probe
 *    (probes == 0, only a memo-table read). Otherwise the underlying
 *    scheme runs unchanged and the table is updated.
 *
 *  - WayPredictLookup probes the predicted (most-recently-used) way
 *    first; on a correct prediction the access costs one probe, on a
 *    misprediction one more wide probe covers the remaining a-1 ways
 *    in parallel (two probes total).
 *
 * Neither strategy ever changes what hits: hit/miss and the hit way
 * are bit-identical to the underlying scheme — memoization only
 * changes probes and energy. WayMemoLookup enforces this by
 * construction: it runs the underlying lookup internally and only
 * declares a memo hit when the table entry agrees with it. That
 * mirrors the hardware guarantee (real memo tables are invalidated
 * on eviction so a valid entry is always correct); our strategy
 * cannot observe evictions, so a stale entry is detected here and
 * priced as a memo miss — exactly what the cleared hardware entry
 * would have cost.
 */

#ifndef ASSOC_CORE_WAY_MEMO_H
#define ASSOC_CORE_WAY_MEMO_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lookup.h"

namespace assoc {
namespace core {

/** Memo-table geometry. */
struct WayMemoConfig
{
    /** Number of memo entries (power of two). */
    std::uint32_t entries = 64;
    /** Region granularity: region = block_addr >> region_bits.
     *  0 memoizes per block; larger values share one entry across
     *  2^region_bits consecutive blocks. */
    unsigned region_bits = 0;
    /** Tagged entries store the region id and only match their own
     *  region; untagged entries save the tag bits but alias every
     *  region that maps to the same index. */
    bool tagged = true;
};

/**
 * Memo table of last hit ways over an underlying scheme. A memo hit
 * costs zero probes; a memo miss costs the underlying scheme's
 * probes plus the memo-table access.
 */
class WayMemoLookup : public LookupStrategy
{
  public:
    WayMemoLookup(std::unique_ptr<LookupStrategy> underlying,
                  const WayMemoConfig &cfg);

    LookupResult lookup(const LookupInput &in) const override;
    std::string name() const override;
    void onFlush() override;

    /** The scheme a memo miss falls back to. */
    const LookupStrategy &underlying() const { return *underlying_; }
    const WayMemoConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        std::uint32_t region = 0; ///< region id (tagged tables only)
        std::int16_t way = -1;    ///< memoized way, -1 = invalid
    };

    std::unique_ptr<LookupStrategy> underlying_;
    WayMemoConfig cfg_;
    /** Lookup state mutates on a const lookup: the memo table is a
     *  cost-model side structure, not part of the set snapshot. */
    mutable std::vector<Entry> table_;
};

/**
 * MRU way prediction: probe the predicted way first, then all
 * remaining ways at once. The prediction register is read in
 * parallel with set decode, so unlike MruLookup's list read it
 * costs no probe — only a memo-table event for the energy model.
 */
class WayPredictLookup : public LookupStrategy
{
  public:
    LookupResult lookup(const LookupInput &in) const override;
    std::string name() const override { return "WayPredict"; }
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_WAY_MEMO_H
