#include "mem/cache.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

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

/** A 1 in the low bit of each 4-bit slot. */
constexpr std::uint64_t kNibbleLsb = 0x1111111111111111ull;
/** A 1 in the high bit of each 4-bit slot. */
constexpr std::uint64_t kNibbleMsb = 0x8888888888888888ull;

/** Mask covering packed slots [0, n), n <= 16. */
inline std::uint64_t
slotMask(unsigned n)
{
    return n >= 16 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << (4 * n)) - 1);
}

/**
 * Position of the slot holding @p way among the first @p a slots of
 * @p w. SWAR zero-nibble scan: XOR against the broadcast way turns
 * the match into a zero nibble; borrow propagation can only set
 * false-positive bits *above* the lowest true zero, so the lowest
 * set bit of the detector is always the first match.
 */
inline unsigned
slotFind(std::uint64_t w, unsigned a, unsigned way)
{
    std::uint64_t x = (w ^ (way * kNibbleLsb)) | ~slotMask(a);
    std::uint64_t zero = (x - kNibbleLsb) & ~x & kNibbleMsb;
    panicIf(zero == 0, "way missing from packed recency order");
    return static_cast<unsigned>(std::countr_zero(zero)) / 4;
}

/** Move the slot at @p pos to slot 0, shifting [0, pos) up one. */
inline std::uint64_t
slotPromote(std::uint64_t w, unsigned pos)
{
    std::uint64_t way = (w >> (4 * pos)) & 0xf;
    std::uint64_t below = w & slotMask(pos);
    std::uint64_t above = w & ~slotMask(pos + 1);
    return above | (below << 4) | way;
}

/** Move the slot at @p pos to slot a-1, shifting (pos, a) down. */
inline std::uint64_t
slotDemote(std::uint64_t w, unsigned pos, unsigned a)
{
    std::uint64_t way = (w >> (4 * pos)) & 0xf;
    std::uint64_t low = w & slotMask(pos);
    std::uint64_t high = w & ~slotMask(a);
    std::uint64_t mid = (w & (slotMask(a) & ~slotMask(pos + 1))) >> 4;
    return high | (way << (4 * (a - 1))) | mid | low;
}

} // namespace

WriteBackCache::WriteBackCache(const CacheGeometry &geom,
                               ReplPolicy policy, std::uint64_t seed)
    : geom_(geom), policy_(policy), rng_(seed, 0xbadc0de),
      assoc_(geom.assoc()), vwords_((geom.assoc() + 63) / 64),
      packed_(geom.assoc() <= 16),
      blocks_(static_cast<std::size_t>(geom.sets()) * geom.assoc(), 0),
      valid_(static_cast<std::size_t>(geom.sets()) * vwords_, 0),
      dirty_(static_cast<std::size_t>(geom.sets()) * vwords_, 0),
      plru_(geom.sets(), 0)
{
    fatalIf(geom_.assoc() > 255, "associativity above 255 unsupported");
    fatalIf(policy_ == ReplPolicy::TreePlru && geom_.assoc() > 64,
            "tree PLRU supports associativity up to 64");
    if (packed_) {
        mru_packed_.assign(geom_.sets(), 0);
        fifo_packed_.assign(geom_.sets(), 0);
    } else {
        mru_wide_.assign(blocks_.size(), 0);
        fifo_wide_.assign(blocks_.size(), 0);
    }
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
    if (packed_) {
        std::uint64_t w = 0;
        for (unsigned i = 0; i < assoc_; ++i)
            w |= static_cast<std::uint64_t>((i + set) % assoc_)
                 << (4 * i);
        mru_packed_[set] = w;
        fifo_packed_[set] = w;
    } else {
        std::uint8_t *mru = &mru_wide_[index(set, 0)];
        std::uint8_t *fifo = &fifo_wide_[index(set, 0)];
        for (unsigned i = 0; i < assoc_; ++i)
            mru[i] = static_cast<std::uint8_t>((i + set) % assoc_);
        std::memcpy(fifo, mru, assoc_);
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
    const BlockAddr *blk = &blocks_[index(set, 0)];
    const std::uint64_t *vw =
        &valid_[static_cast<std::size_t>(set) * vwords_];
    if (assoc_ <= 64) {
        // One kernel eq mask over the set's block plane; the lowest
        // set bit is the first valid way holding b (ways are
        // unique, but the lowest-bit pick also matches the old
        // valid-order scan exactly).
        std::uint64_t e = core::activeKernels().eq_mask_bits(
            blk, vw[0], assoc_, b);
        return e != 0
                   ? static_cast<int>(std::countr_zero(e))
                   : -1;
    }
    for (unsigned i = 0; i < vwords_; ++i) {
        std::uint64_t m = vw[i];
        while (m != 0) {
            unsigned w =
                i * 64 + static_cast<unsigned>(std::countr_zero(m));
            if (blk[w] == b)
                return static_cast<int>(w);
            m &= m - 1;
        }
    }
    return -1;
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
    const std::size_t vbase = static_cast<std::size_t>(set) * vwords_;
    // Walk the recency order from MRU to LRU so the probe count
    // prices the paper's serial MRU scan. A concurrently mutating
    // writer can tear the view (duplicate or out-of-range ways);
    // bounds are guarded so a torn decode cannot fault, and the
    // caller's seqlock validation discards the result.
    if (assoc_ <= 64) {
        // Tag compares as one torn-read-tolerant kernel eq mask
        // (the AVX2 body trades per-element relaxed loads for plain
        // vector loads outside TSan — see core/kernels.h); the
        // order walk then only tests bit membership.
        std::uint64_t vbits = planeLoad(valid_[vbase]);
        std::uint64_t e =
            core::activeKernels().eq_mask_bits_relaxed(
                &blocks_[base], vbits, assoc_, b);
        std::uint64_t packed_order = 0;
        if (packed_)
            packed_order = planeLoad(mru_packed_[set]);
        for (unsigned pos = 0; pos < assoc_; ++pos) {
            unsigned way =
                packed_
                    ? static_cast<unsigned>(
                          (packed_order >> (4 * pos)) & 0xf)
                    : planeLoad(mru_wide_[base + pos]);
            if (way >= assoc_)
                break; // torn order word; validation will reject
            if ((e >> way) & 1) {
                *probes = pos + 1;
                return static_cast<int>(way);
            }
        }
        *probes = assoc_;
        return -1;
    }
    for (unsigned pos = 0; pos < assoc_; ++pos) {
        unsigned way = planeLoad(mru_wide_[base + pos]);
        if (way >= assoc_)
            break; // torn order word; validation will reject
        bool valid =
            ((planeLoad(valid_[vbase + (way >> 6)]) >> (way & 63)) &
             1) != 0;
        if (valid && planeLoad(blocks_[base + way]) == b) {
            *probes = pos + 1;
            return static_cast<int>(way);
        }
    }
    *probes = assoc_;
    return -1;
}

void
WriteBackCache::orderPromote(std::vector<std::uint64_t> &packed,
                             std::vector<std::uint8_t> &wide,
                             std::uint32_t set, unsigned way)
{
    if (packed_) {
        std::uint64_t w = packed[set];
        planeStore(packed[set],
                   slotPromote(w, slotFind(w, assoc_, way)));
        return;
    }
    std::uint8_t *order = &wide[index(set, 0)];
    std::uint8_t *it = static_cast<std::uint8_t *>(
        std::memchr(order, static_cast<int>(way), assoc_));
    panicIf(it == nullptr, "way missing from recency order");
    // Shift [0, pos) up one slot, back to front, as atomic byte
    // stores (memmove would be an unpublished plain write).
    for (std::uint8_t *p = it; p != order; --p)
        planeStore(*p, *(p - 1));
    planeStore(order[0], static_cast<std::uint8_t>(way));
}

void
WriteBackCache::orderDemote(std::vector<std::uint64_t> &packed,
                            std::vector<std::uint8_t> &wide,
                            std::uint32_t set, unsigned way)
{
    if (packed_) {
        std::uint64_t w = packed[set];
        planeStore(packed[set],
                   slotDemote(w, slotFind(w, assoc_, way), assoc_));
        return;
    }
    std::uint8_t *order = &wide[index(set, 0)];
    std::uint8_t *it = static_cast<std::uint8_t *>(
        std::memchr(order, static_cast<int>(way), assoc_));
    panicIf(it == nullptr, "way missing from recency order");
    for (std::uint8_t *p = it; p != order + assoc_ - 1; ++p)
        planeStore(*p, *(p + 1));
    planeStore(order[assoc_ - 1], static_cast<std::uint8_t>(way));
}

unsigned
WriteBackCache::orderBack(const std::vector<std::uint64_t> &packed,
                          const std::vector<std::uint8_t> &wide,
                          std::uint32_t set) const
{
    if (packed_)
        return static_cast<unsigned>(
            (packed[set] >> (4 * (assoc_ - 1))) & 0xf);
    return wide[index(set, 0) + assoc_ - 1];
}

void
WriteBackCache::orderDecode(const std::vector<std::uint64_t> &packed,
                            const std::vector<std::uint8_t> &wide,
                            std::uint32_t set, std::uint8_t *out) const
{
    if (packed_) {
        core::activeKernels().expand_nibbles(packed[set], assoc_,
                                             out);
        return;
    }
    std::memcpy(out, &wide[index(set, 0)], assoc_);
}

void
WriteBackCache::makeMru(std::uint32_t set, int way)
{
    orderPromote(mru_packed_, mru_wide_, set,
                 static_cast<unsigned>(way));
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
    std::size_t mi = maskIndex(set, w);
    planeStore(dirty_[mi],
               dirty_[mi] | (std::uint64_t{1} << (w & 63)));
}

int
WriteBackCache::victimWay(std::uint32_t set) const
{
    // Invalid frames always occupy a suffix of the recency order
    // (they are pushed to the LRU end on flush and invalidation and
    // only leave it by being filled), so the back of the order is
    // an empty frame whenever one exists (a miss can fill any empty
    // block frame of the set), under every policy.
    unsigned back = orderBack(mru_packed_, mru_wide_, set);
    if (!validBit(set, back))
        return static_cast<int>(back);
    switch (policy_) {
      case ReplPolicy::Lru:
        return static_cast<int>(back);
      case ReplPolicy::Fifo:
        return static_cast<int>(orderBack(fifo_packed_, fifo_wide_,
                                          set));
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
    std::size_t mi = maskIndex(set, w);
    std::uint64_t bit = std::uint64_t{1} << (w & 63);
    std::size_t idx = index(set, res.way);
    if (valid_[mi] & bit) {
        res.evicted = true;
        res.victim_block = blocks_[idx];
        res.victim_dirty = (dirty_[mi] & bit) != 0;
    }
    planeStore(blocks_[idx], b);
    planeStore(valid_[mi], valid_[mi] | bit);
    if (dirty)
        planeStore(dirty_[mi], dirty_[mi] | bit);
    else
        planeStore(dirty_[mi], dirty_[mi] & ~bit);
    makeMru(set, res.way);

    // Fill-age bookkeeping (drives the Fifo policy; cheap enough to
    // maintain unconditionally).
    orderPromote(fifo_packed_, fifo_wide_, set, w);
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
    std::size_t mi = maskIndex(set, w);
    std::uint64_t bit = std::uint64_t{1} << (w & 63);
    bool was_dirty = (dirty_[mi] & bit) != 0;
    planeStore(valid_[mi], valid_[mi] & ~bit);
    planeStore(dirty_[mi], dirty_[mi] & ~bit);
    // Demote the invalidated way to the LRU/oldest end of *both*
    // orders so empty frames are reused first and invalid frames
    // stay a suffix of the fill-age order too (victimWay() under
    // Fifo and the order checkers rely on the suffix invariant).
    orderDemote(mru_packed_, mru_wide_, set, w);
    orderDemote(fifo_packed_, fifo_wide_, set, w);
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
    std::vector<std::uint8_t> out(assoc_);
    orderDecode(mru_packed_, mru_wide_, set, out.data());
    return out;
}

std::vector<std::uint8_t>
WriteBackCache::fifoOrder(std::uint32_t set) const
{
    std::vector<std::uint8_t> out(assoc_);
    orderDecode(fifo_packed_, fifo_wide_, set, out.data());
    return out;
}

void
WriteBackCache::snapshotSet(std::uint32_t set,
                            std::uint32_t *full_tags,
                            std::uint8_t *valid,
                            std::uint8_t *mru) const
{
    const core::LookupKernels &kern = core::activeKernels();
    if (full_tags != nullptr) {
        // fullTagOf() is a uniform right shift of the block plane.
        kern.shift_tags(&blocks_[index(set, 0)], assoc_,
                        geom_.indexBits(), full_tags);
    }
    if (valid != nullptr) {
        const std::uint64_t *vw =
            &valid_[static_cast<std::size_t>(set) * vwords_];
        unsigned w = 0;
        for (unsigned i = 0; i < vwords_; ++i, w += 64)
            kern.expand_bits(vw[i],
                             assoc_ - w < 64 ? assoc_ - w : 64,
                             valid + w);
    }
    if (mru != nullptr)
        orderDecode(mru_packed_, mru_wide_, set, mru);
}

unsigned
WriteBackCache::validCount(std::uint32_t set) const
{
    unsigned n = 0;
    const std::uint64_t *vw =
        &valid_[static_cast<std::size_t>(set) * vwords_];
    for (unsigned i = 0; i < vwords_; ++i)
        n += popcount(vw[i]);
    return n;
}

} // namespace mem
} // namespace assoc
