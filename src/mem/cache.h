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
 *    plane plus one valid and one dirty bitmask word per set, so
 *    findWay() is one kernel eq mask over the set instead of a
 *    stride over structs. A cache has at most kMaxAssoc = 64 ways:
 *    the lookup kernels' masks (core/kernels.h) are one 64-bit word.
 *    The valid word reaches every lookup as it is (validMask()):
 *    the kernels take validity as a word, never as per-way bytes.
 *  - The per-set MRU and fill-age (FIFO) orders are ceil(a / 8)
 *    std::uint64_t words each, one 8-bit way slot per byte (slot 0 =
 *    most recent or youngest); promotion and demotion are SWAR
 *    shift/mask updates, and one layout serves every associativity
 *    from 1 to 64. Slot i is byte i of the set's words, so the MRU
 *    order reaches observers in place (setOrder()), undecoded.
 * The layout is observationally identical to the original
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

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/geometry.h"
#include "util/rng.h"

namespace assoc {
namespace mem {

/** The widest cache: one 64-bit mask word covers a set. */
constexpr unsigned kMaxAssoc = 64;

// setOrder() hands out a set's order words as bytes: slot i must be
// byte i.
static_assert(std::endian::native == std::endian::little,
              "recency slots are read as bytes of their words");

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
     * @param geom shape of the cache; fatal() above kMaxAssoc ways.
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
     * recently used. Invalid ways occupy the tail. A copy of
     * setOrder()'s assoc() bytes, not a live reference.
     */
    std::vector<std::uint8_t> mruOrder(std::uint32_t set) const;

    /**
     * Fill-age order of @p set: way indices from youngest to oldest
     * fill. Invalid ways occupy the tail (see invalidate()).
     */
    std::vector<std::uint8_t> fifoOrder(std::uint32_t set) const;

    /**
     * Block addresses of @p set's ways, assoc() of them, as the
     * cache stores them: a pointer into the block plane, not a
     * copy, so valid only until the set next changes. An invalid
     * way keeps its last block. With validMask() and setOrder()
     * this is what the observer fan-out (mem/hierarchy.h) shows
     * lookup schemes without per-way line() calls.
     */
    const BlockAddr *
    setBlocks(std::uint32_t set) const
    {
        return &blocks_[index(set, 0)];
    }

    /**
     * Recency order of @p set as the cache stores it: assoc() way
     * indices from most- to least-recently used, one byte each. A
     * pointer into the MRU order plane, not a copy, so valid only
     * until the set next changes.
     */
    const std::uint8_t *
    setOrder(std::uint32_t set) const
    {
        return slots(mru_, set);
    }

    /** Validity word of @p set: bit w set iff way w is valid. The
     *  cache's own representation, read without decoding. */
    std::uint64_t
    validMask(std::uint32_t set) const
    {
        return valid_[set];
    }

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
        __builtin_prefetch(&valid_[set]);
        __builtin_prefetch(&mru_[orderIndex(set)]);
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
               (valid_.size() + dirty_.size() + mru_.size() +
                fifo_.size() + plru_.size()) *
                   sizeof(std::uint64_t);
    }

  private:
    std::size_t
    index(std::uint32_t set, int way) const
    {
        return static_cast<std::size_t>(set) * assoc_ +
               static_cast<std::size_t>(way);
    }

    /** First word of @p set's order in mru_ and fifo_. */
    std::size_t
    orderIndex(std::uint32_t set) const
    {
        return static_cast<std::size_t>(set) * words_;
    }

    bool
    validBit(std::uint32_t set, unsigned way) const
    {
        return (valid_[set] >> way) & 1;
    }

    bool
    dirtyBit(std::uint32_t set, unsigned way) const
    {
        return (dirty_[set] >> way) & 1;
    }

    void makeMru(std::uint32_t set, int way);
    void resetOrder(std::uint32_t set);

    /** Move @p way to the front (MRU / youngest) of one order. */
    void orderPromote(std::vector<std::uint64_t> &order,
                      std::uint32_t set, unsigned way);
    /** Move @p way to the back (LRU / oldest) of one order. */
    void orderDemote(std::vector<std::uint64_t> &order,
                     std::uint32_t set, unsigned way);
    /** Way at the back of one order. */
    unsigned orderBack(const std::vector<std::uint64_t> &order,
                       std::uint32_t set) const;

    /** Slot 0 of @p set in one order; slot i is byte i. */
    const std::uint8_t *
    slots(const std::vector<std::uint64_t> &order,
          std::uint32_t set) const
    {
        return reinterpret_cast<const std::uint8_t *>(
            &order[orderIndex(set)]);
    }

    void plruTouch(std::uint32_t set, int way);
    int plruVictim(std::uint32_t set) const;

    CacheGeometry geom_;
    ReplPolicy policy_;
    mutable Pcg32 rng_; ///< Random-policy victim draws

    unsigned assoc_; ///< cached geom_.assoc()
    unsigned words_; ///< order words per set: ceil(assoc_ / 8)

    /** Block-address plane, sets * assoc contiguous entries.
     *  Invalid frames keep their last block (or 0 when never
     *  filled), matching the historical Line semantics. */
    std::vector<BlockAddr> blocks_;
    /** Valid bitmasks, one word per set. */
    std::vector<std::uint64_t> valid_;
    /** Dirty bitmasks, one word per set. */
    std::vector<std::uint64_t> dirty_;

    /** MRU order, words_ words per set: slot i is bits
     *  [8 (i mod 8), 8 (i mod 8) + 8) of the set's word i / 8, slot
     *  0 the most recently used way. Slots at and above assoc_
     *  hold 0xff, never a way. */
    std::vector<std::uint64_t> mru_;
    /** Fill-age order in the same layout (slot 0 = youngest fill);
     *  drives the Fifo policy. */
    std::vector<std::uint64_t> fifo_;

    /** Tree-PLRU direction bits, one word per set; empty under
     *  every other policy. */
    std::vector<std::uint64_t> plru_;
};

} // namespace mem
} // namespace assoc

#endif // ASSOC_MEM_CACHE_H
