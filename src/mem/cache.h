/**
 * @file
 * A generic a-way set-associative write-back cache model with true
 * LRU replacement.
 *
 * This models cache *state* only (tags, valid/dirty bits, per-set
 * recency order). Lookup cost (probes) is priced separately by the
 * observers in src/core, which read this state before each access
 * commits — that separation lets one simulation pass price every
 * lookup scheme of the paper on an identical reference stream.
 *
 * Storage layout (the simulation hot path — see docs/PERFORMANCE.md):
 *  - Line state is structure-of-arrays: one contiguous block-address
 *    plane plus per-set valid/dirty bitmasks, so findWay() is a
 *    bit-scan over the valid mask instead of a stride over structs.
 *  - The per-set MRU and fill-age (FIFO) orders are packed into one
 *    std::uint64_t of 4-bit way slots each when assoc <= 16 (slot 0
 *    = most recent); promotion and demotion are shift/mask updates.
 *    Larger associativities fall back to flat byte arrays.
 * Both layouts are observationally identical to the original
 * vector-of-Line / vector-of-vector representation (enforced by the
 * randomized equivalence tests in tests/mem/test_recency_packed.cc).
 *
 * Concurrency contract (the substrate of src/svc's seqlock): every
 * mutator publishes its plane stores as relaxed std::atomic_ref
 * stores (a plain mov on mainstream ISAs, so the single-threaded
 * hot path is unchanged) and writes no state outside its set. That
 * makes the following discipline race-free, and
 * ThreadSanitizer-clean: writers externally serialized *per set*
 * (src/svc stripes a lock table over the sets), readers either
 * holding the same lock or calling probeRelaxed() under a seqlock
 * validation loop. flush() and the Random replacement policy are
 * excluded — both touch cross-set state (bulk fills, the shared
 * RNG) and may only run quiesced.
 */

#ifndef ASSOC_MEM_CACHE_H
#define ASSOC_MEM_CACHE_H

#include <cstdint>
#include <vector>

#include "mem/geometry.h"
#include "util/rng.h"

namespace assoc {
namespace mem {

/**
 * One cache line (tag state only; data is not modeled). Lines are
 * stored structure-of-arrays internally; this struct is the
 * per-line *view* that line() materializes for observers and tests.
 */
struct Line
{
    BlockAddr block = 0; ///< block address stored here
    bool valid = false;
    bool dirty = false;
};

/** Result of allocating a block into a set. */
struct FillResult
{
    int way = -1;               ///< frame the block landed in
    bool evicted = false;       ///< a valid victim was displaced
    BlockAddr victim_block = 0; ///< victim's block address
    bool victim_dirty = false;  ///< victim needed writing back
};

/**
 * Replacement policy. The paper assumes LRU ("the least-recently-
 * used entry in a set is replaced") and notes that any policy
 * other than random needs extra per-set memory — which the MRU
 * scheme can share. Fifo and Random are provided for ablations;
 * the recency order used by the lookup-cost observers is
 * maintained regardless of the victim-selection policy.
 */
enum class ReplPolicy : std::uint8_t {
    Lru,    ///< true LRU (the paper's configuration)
    Fifo,   ///< replace the oldest-filled line
    Random, ///< replace a pseudo-random line (no extra memory)
    /**
     * Tree pseudo-LRU: a - 1 bits per set instead of the full LRU
     * list. The practical middle ground — if a design chooses it
     * over true LRU, the MRU scheme loses its free search list
     * (Section 2.1's cost argument in reverse).
     */
    TreePlru,
};

/** Printable policy name. */
const char *replPolicyName(ReplPolicy policy);

/**
 * The cache. Blocks never migrate between ways after they are
 * filled (a property the paper's write-back optimization relies
 * on: the level-one cache can remember which level-two way holds
 * each of its blocks).
 */
class WriteBackCache
{
  public:
    /**
     * @param geom shape of the cache.
     * @param policy victim selection (default: the paper's LRU).
     * @param seed RNG seed for the Random policy.
     */
    explicit WriteBackCache(const CacheGeometry &geom,
                            ReplPolicy policy = ReplPolicy::Lru,
                            std::uint64_t seed = 0x5eed);

    const CacheGeometry &geom() const { return geom_; }

    /** The victim-selection policy in use. */
    ReplPolicy policy() const { return policy_; }

    /**
     * Pure lookup: which way holds block @p b?
     * @return way index, or -1 on miss. No state changes.
     */
    int findWay(BlockAddr b) const;

    /**
     * Pure lookup for the concurrent service's optimistic read path:
     * scan @p b's set in MRU order through relaxed atomic loads, so
     * the scan may legally race with a concurrent (per-set
     * serialized) mutator. The result is only meaningful once the
     * caller's seqlock validation confirms no writer intervened; a
     * torn view never faults, it just returns an arbitrary miss/hit
     * that validation will discard.
     *
     * @param probes MRU-scan cost in the paper's probe currency:
     *        1-based position of the hit way in the recency order,
     *        or the associativity on a miss (a full Naive scan).
     * @return way index, or -1 on miss.
     */
    int probeRelaxed(BlockAddr b, unsigned *probes) const;

    /** Promote (set, way) to most recently used. */
    void touch(std::uint32_t set, int way);

    /** Mark (set, way) dirty (a write hit or write-back arrival). */
    void setDirty(std::uint32_t set, int way);

    /**
     * Allocate block @p b, evicting the least-recently-used line of
     * its set if the set is full. The new line becomes MRU.
     * @param dirty initial dirty state of the new line.
     * @pre findWay(b) < 0 (the block must not already be present).
     */
    FillResult fill(BlockAddr b, bool dirty);

    /**
     * The way that fill() would victimize for @p set right now
     * (an invalid way if one exists, else the LRU way).
     */
    int victimWay(std::uint32_t set) const;

    /**
     * Drop block @p b if present. The freed frame is demoted to the
     * tail of both the MRU and the fill-age orders so empty frames
     * always form a suffix of each (the invariant victimWay() and
     * the src/check order checkers rely on).
     * @return true when the invalidated line was valid and dirty.
     */
    bool invalidate(BlockAddr b);

    /** Invalidate every line and reset recency state. */
    void flush();

    /** Read one line (decoded view; for observers and tests). */
    Line
    line(std::uint32_t set, int way) const
    {
        std::size_t i = index(set, way);
        Line l;
        l.block = blocks_[i];
        l.valid = validBit(set, static_cast<unsigned>(way));
        l.dirty = dirtyBit(set, static_cast<unsigned>(way));
        return l;
    }

    /**
     * Recency order of @p set: way indices from most- to least-
     * recently used. Invalid ways occupy the tail. Decoded from the
     * packed representation: a snapshot, not a live reference.
     */
    std::vector<std::uint8_t> mruOrder(std::uint32_t set) const;

    /**
     * Fill-age order of @p set: way indices from youngest to oldest
     * fill. Invalid ways occupy the tail (see invalidate()).
     */
    std::vector<std::uint8_t> fifoOrder(std::uint32_t set) const;

    /**
     * Decode the pre-access state of @p set into caller scratch
     * buffers of assoc() elements each: full (untruncated) tags,
     * 0/1 valid flags and the MRU order. This is the hot-path
     * export used by TwoLevelHierarchy to hand lookup schemes a
     * core::LookupInput-compatible view without per-way line()
     * calls. Any pointer may be null to skip that plane.
     */
    void snapshotSet(std::uint32_t set, std::uint32_t *full_tags,
                     std::uint8_t *valid, std::uint8_t *mru) const;

    /** Number of valid lines in @p set. */
    unsigned validCount(std::uint32_t set) const;

    /**
     * Hint the hardware prefetcher at the planes of @p b's set (the
     * batched replay path warms the next access's lines while the
     * current one executes). Read-only and result-free.
     */
    void
    prefetchSet(BlockAddr b) const
    {
#if defined(__GNUC__) || defined(__clang__)
        std::uint32_t set = geom_.setOf(b);
        __builtin_prefetch(&blocks_[index(set, 0)]);
        __builtin_prefetch(
            &valid_[static_cast<std::size_t>(set) * vwords_]);
        if (packed_)
            __builtin_prefetch(&mru_packed_[set]);
        else
            __builtin_prefetch(&mru_wide_[index(set, 0)]);
#else
        (void)b;
#endif
    }

    /**
     * Bytes held by the line planes (tag, valid/dirty masks and
     * recency orders). What a MemBudget is charged for this cache;
     * exact for the planes, which dominate every other member.
     */
    std::uint64_t
    footprintBytes() const
    {
        return blocks_.size() * sizeof(BlockAddr) +
               (valid_.size() + dirty_.size() + mru_packed_.size() +
                fifo_packed_.size() + plru_.size()) *
                   sizeof(std::uint64_t) +
               mru_wide_.size() + fifo_wide_.size();
    }

  private:
    std::size_t
    index(std::uint32_t set, int way) const
    {
        return static_cast<std::size_t>(set) * assoc_ +
               static_cast<std::size_t>(way);
    }

    bool
    validBit(std::uint32_t set, unsigned way) const
    {
        return (valid_[maskIndex(set, way)] >> (way & 63)) & 1;
    }

    bool
    dirtyBit(std::uint32_t set, unsigned way) const
    {
        return (dirty_[maskIndex(set, way)] >> (way & 63)) & 1;
    }

    std::size_t
    maskIndex(std::uint32_t set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * vwords_ + (way >> 6);
    }

    void makeMru(std::uint32_t set, int way);
    void resetOrder(std::uint32_t set);

    /** Move @p way to the front (MRU / youngest) of one order. */
    void orderPromote(std::vector<std::uint64_t> &packed,
                      std::vector<std::uint8_t> &wide,
                      std::uint32_t set, unsigned way);
    /** Move @p way to the back (LRU / oldest) of one order. */
    void orderDemote(std::vector<std::uint64_t> &packed,
                     std::vector<std::uint8_t> &wide,
                     std::uint32_t set, unsigned way);
    /** Way at the back of one order. */
    unsigned orderBack(const std::vector<std::uint64_t> &packed,
                       const std::vector<std::uint8_t> &wide,
                       std::uint32_t set) const;
    /** Decode one order into @p out (assoc bytes). */
    void orderDecode(const std::vector<std::uint64_t> &packed,
                     const std::vector<std::uint8_t> &wide,
                     std::uint32_t set, std::uint8_t *out) const;

    void plruTouch(std::uint32_t set, int way);
    int plruVictim(std::uint32_t set) const;

    CacheGeometry geom_;
    ReplPolicy policy_;
    mutable Pcg32 rng_; ///< Random-policy victim draws

    unsigned assoc_;  ///< cached geom_.assoc()
    unsigned vwords_; ///< 64-bit mask words per set
    bool packed_;     ///< 4-bit packed orders (assoc <= 16)

    /** Block-address plane, sets * assoc contiguous entries.
     *  Invalid frames keep their last block (or 0 when never
     *  filled), matching the historical Line semantics. */
    std::vector<BlockAddr> blocks_;
    /** Valid bitmasks, vwords_ words per set. */
    std::vector<std::uint64_t> valid_;
    /** Dirty bitmasks, vwords_ words per set. */
    std::vector<std::uint64_t> dirty_;

    /** Packed MRU order (assoc <= 16): 4-bit way slots, slot 0 =
     *  most recently used. One word per set. */
    std::vector<std::uint64_t> mru_packed_;
    /** Packed fill-age order (front = youngest), Fifo policy. */
    std::vector<std::uint64_t> fifo_packed_;
    /** Fallback orders for assoc > 16: flat sets * assoc bytes. */
    std::vector<std::uint8_t> mru_wide_;
    std::vector<std::uint8_t> fifo_wide_;

    /** Tree-PLRU direction bits, one word per set (TreePlru). */
    std::vector<std::uint64_t> plru_;
};

} // namespace mem
} // namespace assoc

#endif // ASSOC_MEM_CACHE_H
