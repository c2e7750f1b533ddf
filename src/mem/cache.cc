#include "mem/cache.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "core/kernels.h"
#include "util/logging.h"

namespace assoc {
namespace mem {

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Lru:
        return "LRU";
      case ReplPolicy::Fifo:
        return "FIFO";
      case ReplPolicy::Random:
        return "Random";
      case ReplPolicy::TreePlru:
        return "TreePLRU";
    }
    return "unknown";
}

namespace {

/**
 * Publish one plane store as a relaxed atomic (a plain mov on
 * mainstream ISAs). Mutators are serialized per set by the caller
 * (src/svc's stripe locks), but probeRelaxed() readers race with
 * these stores by design — relaxed atomics make that defined
 * behavior and keep ThreadSanitizer quiet; the seqlock above
 * discards any torn view.
 */
template <class T>
inline void
planeStore(T &loc, T v)
{
    std::atomic_ref<T>(loc).store(v, std::memory_order_relaxed);
}

/** Matching relaxed atomic load for the optimistic read path. */
template <class T>
inline T
planeLoad(const T &loc)
{
    return std::atomic_ref<T>(const_cast<T &>(loc))
        .load(std::memory_order_relaxed);
}

/** A 1 in the low bit of each byte slot. */
constexpr std::uint64_t kByteLsb = 0x0101010101010101ull;
/** A 1 in the high bit of each byte slot. */
constexpr std::uint64_t kByteMsb = 0x8080808080808080ull;

/** Mask covering the byte slots [0, n) of one word, n < 8. */
inline std::uint64_t
lowSlots(unsigned n)
{
    return ~(~std::uint64_t{0} << (8 * n));
}

/**
 * Position of the slot holding @p way in one order's @p words words.
 * SWAR zero-byte scan: XOR against the broadcast way turns the match
 * into a zero byte; borrow propagation can only set false-positive
 * bits *above* the lowest true zero of the same word, so the first
 * word with a detection holds the match at its lowest set bit.
 * Padding slots hold 0xff and never match.
 */
inline unsigned
slotFind(const std::uint64_t *order, unsigned words, unsigned way)
{
    const std::uint64_t broadcast = way * kByteLsb;
    for (unsigned i = 0; i < words; ++i) {
        const std::uint64_t x = order[i] ^ broadcast;
        const std::uint64_t zero = (x - kByteLsb) & ~x & kByteMsb;
        if (zero != 0)
            return 8 * i + static_cast<unsigned>(std::countr_zero(zero)) / 8;
    }
    panic("way missing from recency order");
}

} // namespace

WriteBackCache::WriteBackCache(const CacheGeometry &geom,
                               ReplPolicy policy, std::uint64_t seed)
    : geom_(geom), policy_(policy), rng_(seed, 0xbadc0de),
      assoc_(geom.assoc()), words_((geom.assoc() + 7) / 8),
      blocks_(static_cast<std::size_t>(geom.sets()) * geom.assoc(), 0),
      valid_(geom.sets(), 0), dirty_(geom.sets(), 0),
      mru_(static_cast<std::size_t>(geom.sets()) * words_, 0),
      fifo_(mru_.size(), 0)
{
    fatalIf(assoc_ > kMaxAssoc,
            "associativity " + std::to_string(assoc_) +
                " unsupported: a cache has at most " +
                std::to_string(kMaxAssoc) + " ways");
    if (policy_ == ReplPolicy::TreePlru)
        plru_.assign(geom_.sets(), 0);
    for (std::uint32_t set = 0; set < geom_.sets(); ++set)
        resetOrder(set);
}

void
WriteBackCache::resetOrder(std::uint32_t set)
{
    // After reset the recency state is arbitrary; rotate it by the
    // set index so that cold-cache fills are not correlated with
    // physical way order across sets (a real cache's power-on LRU
    // state has no such correlation, and the serial schemes' scan
    // costs would otherwise be biased).
    std::uint64_t *mru = &mru_[orderIndex(set)];
    std::uint64_t *fifo = &fifo_[orderIndex(set)];
    for (unsigned k = 0; k < words_; ++k) {
        std::uint64_t w = 0;
        for (unsigned j = 0; j < 8; ++j) {
            const unsigned i = 8 * k + j;
            const std::uint64_t way =
                i < assoc_ ? (i + set) % assoc_ : 0xff;
            w |= way << (8 * j);
        }
        mru[k] = w;
        fifo[k] = w;
    }
}

int
WriteBackCache::findWay(BlockAddr b) const
{
    std::uint32_t set = geom_.setOf(b);
    // Direct-mapped fast path: one bit, one compare.
    if (assoc_ == 1)
        return ((valid_[set] & 1) != 0 && blocks_[set] == b) ? 0
                                                             : -1;
    // One kernel eq mask over the set's block plane; the lowest set
    // bit is the first valid way holding b (ways are unique, but the
    // lowest-bit pick also matches a valid-order scan exactly).
    std::uint64_t e = core::activeKernels().eq_mask(
        &blocks_[index(set, 0)], valid_[set], assoc_, b);
    return e != 0 ? static_cast<int>(std::countr_zero(e)) : -1;
}

int
WriteBackCache::probeRelaxed(BlockAddr b, unsigned *probes) const
{
    const std::uint32_t set = geom_.setOf(b);
    if (assoc_ == 1) {
        *probes = 1;
        bool hit = (planeLoad(valid_[set]) & 1) != 0 &&
                   planeLoad(blocks_[set]) == b;
        return hit ? 0 : -1;
    }
    const std::size_t base = index(set, 0);
    // Walk the recency order from MRU to LRU so the probe count
    // prices the paper's serial MRU scan. A concurrently mutating
    // writer can tear the view (a way twice and another missing,
    // when a promote or demote spans order words); the walk reads
    // only the set's slots and stops at any that is not a way, so a
    // torn view cannot fault, and the caller's seqlock validation
    // discards the result.
    //
    // Tag compares run as one torn-read-tolerant kernel eq mask (the
    // AVX2 body trades per-element relaxed loads for plain vector
    // loads outside TSan — see core/kernels.h); the order walk then
    // only tests bit membership.
    std::uint64_t e = core::activeKernels().eq_mask_relaxed(
        &blocks_[base], planeLoad(valid_[set]), assoc_, b);
    const std::uint64_t *order = &mru_[orderIndex(set)];
    std::uint64_t word = 0;
    for (unsigned pos = 0; pos < assoc_; ++pos, word >>= 8) {
        if (pos % 8 == 0)
            word = planeLoad(order[pos / 8]);
        const unsigned way = static_cast<unsigned>(word & 0xff);
        if (way >= assoc_)
            break; // not a way; validation will reject
        if ((e >> way) & 1) {
            *probes = pos + 1;
            return static_cast<int>(way);
        }
    }
    *probes = assoc_;
    return -1;
}

void
WriteBackCache::orderPromote(std::vector<std::uint64_t> &order,
                             std::uint32_t set, unsigned way)
{
    // Slots [0, pos) move up one byte: whole words below pos's word
    // shift left, each top byte carrying into the next word's slot
    // 0, and the way enters slot 0 of the first word.
    std::uint64_t *words = &order[orderIndex(set)];
    const unsigned pos = slotFind(words, words_, way);
    const unsigned k = pos / 8, j = pos % 8;
    std::uint64_t carry = way;
    for (unsigned i = 0; i < k; ++i) {
        const std::uint64_t w = words[i];
        planeStore(words[i], (w << 8) | carry);
        carry = w >> 56;
    }
    const std::uint64_t w = words[k];
    const std::uint64_t below = w & lowSlots(j);
    const std::uint64_t above = w & ((~std::uint64_t{0} << 8) << (8 * j));
    planeStore(words[k], above | (below << 8) | carry);
}

void
WriteBackCache::orderDemote(std::vector<std::uint64_t> &order,
                            std::uint32_t set, unsigned way)
{
    // Slots (pos, a) move down one byte: each word from pos's on
    // takes the next word's slot 0 into its top slot, and the way
    // enters slot a - 1. Only a last word below 8 ways has padding
    // above its top slot, and the padding stays.
    std::uint64_t *words = &order[orderIndex(set)];
    const unsigned pos = slotFind(words, words_, way);
    const unsigned last = words_ - 1;
    for (unsigned i = pos / 8; i <= last; ++i) {
        const unsigned top = i < last ? 7 : (assoc_ - 1) % 8;
        const std::uint64_t moved =
            lowSlots(top) & ~lowSlots(i == pos / 8 ? pos % 8 : 0);
        const std::uint64_t top_slot = std::uint64_t{0xff} << (8 * top);
        const std::uint64_t in = i < last ? words[i + 1] & 0xff : way;
        const std::uint64_t w = words[i];
        planeStore(words[i], (w & ~(moved | top_slot)) |
                                 ((w >> 8) & moved) | (in << (8 * top)));
    }
}

unsigned
WriteBackCache::orderBack(const std::vector<std::uint64_t> &order,
                          std::uint32_t set) const
{
    return slots(order, set)[assoc_ - 1];
}

void
WriteBackCache::makeMru(std::uint32_t set, int way)
{
    orderPromote(mru_, set, static_cast<unsigned>(way));
}

void
WriteBackCache::plruTouch(std::uint32_t set, int way)
{
    // Point every tree node on the path to @p way at the *other*
    // subtree, protecting the touched leaf.
    std::uint64_t &bits = plru_[set];
    unsigned levels = log2i(geom_.assoc());
    unsigned node = 1;
    for (unsigned l = levels; l > 0; --l) {
        bool right = (static_cast<unsigned>(way) >> (l - 1)) & 1;
        if (right)
            bits &= ~(std::uint64_t{1} << node);
        else
            bits |= std::uint64_t{1} << node;
        node = 2 * node + (right ? 1 : 0);
    }
}

int
WriteBackCache::plruVictim(std::uint32_t set) const
{
    // Follow the direction bits from the root (bit set = go right).
    std::uint64_t bits = plru_[set];
    unsigned levels = log2i(geom_.assoc());
    unsigned node = 1, way = 0;
    for (unsigned l = 0; l < levels; ++l) {
        bool right = (bits >> node) & 1;
        way = (way << 1) | (right ? 1u : 0u);
        node = 2 * node + (right ? 1 : 0);
    }
    return static_cast<int>(way);
}

void
WriteBackCache::touch(std::uint32_t set, int way)
{
    panicIf(way < 0 || static_cast<std::uint32_t>(way) >= assoc_,
            "touch: bad way");
    if (assoc_ == 1)
        return; // a one-entry order cannot change
    makeMru(set, way);
    if (policy_ == ReplPolicy::TreePlru)
        plruTouch(set, way);
}

void
WriteBackCache::setDirty(std::uint32_t set, int way)
{
    unsigned w = static_cast<unsigned>(way);
    panicIf(!validBit(set, w), "setDirty on an invalid line");
    planeStore(dirty_[set], dirty_[set] | (std::uint64_t{1} << w));
}

int
WriteBackCache::victimWay(std::uint32_t set) const
{
    // Invalid frames always occupy a suffix of the recency order
    // (they are pushed to the LRU end on flush and invalidation and
    // only leave it by being filled), so the back of the order is
    // an empty frame whenever one exists (a miss can fill any empty
    // block frame of the set), under every policy.
    unsigned back = orderBack(mru_, set);
    if (!validBit(set, back))
        return static_cast<int>(back);
    switch (policy_) {
      case ReplPolicy::Lru:
        return static_cast<int>(back);
      case ReplPolicy::Fifo:
        return static_cast<int>(orderBack(fifo_, set));
      case ReplPolicy::Random:
        return static_cast<int>(rng_.below(assoc_));
      case ReplPolicy::TreePlru:
        return assoc_ == 1 ? 0 : plruVictim(set);
    }
    panic("bad replacement policy");
}

FillResult
WriteBackCache::fill(BlockAddr b, bool dirty)
{
    panicIf(findWay(b) >= 0, "fill: block already present");
    std::uint32_t set = geom_.setOf(b);
    FillResult res;
    res.way = victimWay(set);

    unsigned w = static_cast<unsigned>(res.way);
    std::uint64_t bit = std::uint64_t{1} << w;
    std::size_t idx = index(set, res.way);
    if (valid_[set] & bit) {
        res.evicted = true;
        res.victim_block = blocks_[idx];
        res.victim_dirty = (dirty_[set] & bit) != 0;
    }
    planeStore(blocks_[idx], b);
    planeStore(valid_[set], valid_[set] | bit);
    if (dirty)
        planeStore(dirty_[set], dirty_[set] | bit);
    else
        planeStore(dirty_[set], dirty_[set] & ~bit);
    makeMru(set, res.way);

    // Fill-age bookkeeping (drives the Fifo policy; cheap enough to
    // maintain unconditionally).
    orderPromote(fifo_, set, w);
    if (policy_ == ReplPolicy::TreePlru && assoc_ > 1)
        plruTouch(set, res.way);
    return res;
}

bool
WriteBackCache::invalidate(BlockAddr b)
{
    int way = findWay(b);
    if (way < 0)
        return false;
    std::uint32_t set = geom_.setOf(b);
    unsigned w = static_cast<unsigned>(way);
    std::uint64_t bit = std::uint64_t{1} << w;
    bool was_dirty = (dirty_[set] & bit) != 0;
    planeStore(valid_[set], valid_[set] & ~bit);
    planeStore(dirty_[set], dirty_[set] & ~bit);
    // Demote the invalidated way to the LRU/oldest end of *both*
    // orders so empty frames are reused first and invalid frames
    // stay a suffix of the fill-age order too (victimWay() under
    // Fifo and the order checkers rely on the suffix invariant).
    orderDemote(mru_, set, w);
    orderDemote(fifo_, set, w);
    return was_dirty;
}

void
WriteBackCache::flush()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    for (std::uint32_t set = 0; set < geom_.sets(); ++set)
        resetOrder(set);
    std::fill(plru_.begin(), plru_.end(), 0);
}

std::vector<std::uint8_t>
WriteBackCache::mruOrder(std::uint32_t set) const
{
    const std::uint8_t *order = setOrder(set);
    return std::vector<std::uint8_t>(order, order + assoc_);
}

std::vector<std::uint8_t>
WriteBackCache::fifoOrder(std::uint32_t set) const
{
    const std::uint8_t *order = slots(fifo_, set);
    return std::vector<std::uint8_t>(order, order + assoc_);
}

unsigned
WriteBackCache::validCount(std::uint32_t set) const
{
    return popcount(valid_[set]);
}

} // namespace mem
} // namespace assoc
