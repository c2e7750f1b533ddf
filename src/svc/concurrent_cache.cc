#include "svc/concurrent_cache.h"

#include <mutex>

#include "util/logging.h"

namespace assoc {
namespace svc {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Probe:
        return "probe";
      case OpKind::Lookup:
        return "lookup";
      case OpKind::Fill:
        return "fill";
      case OpKind::Invalidate:
        return "invalidate";
      case OpKind::Access:
        return "access";
    }
    return "unknown";
}

ConcurrentCache::ConcurrentCache(const mem::CacheGeometry &geom,
                                 const ConcurrentCacheConfig &cfg)
    : cache_(geom, cfg.policy), locks_(geom.sets(), cfg.max_stripes),
      retries_(cfg.optimistic_retries), hold_hook_(cfg.lock_hold_hook)
{}

Expected<std::unique_ptr<ConcurrentCache>>
ConcurrentCache::create(const mem::CacheGeometry &geom,
                        const ConcurrentCacheConfig &cfg,
                        MemBudget *budget)
{
    if (cfg.policy == mem::ReplPolicy::Random)
        return Error::usage(
            "the Random replacement policy draws from a shared RNG "
            "and cannot be serialized per set; use LRU, FIFO or "
            "TreePLRU for the concurrent service");
    std::unique_ptr<ConcurrentCache> engine(
        new ConcurrentCache(geom, cfg));
    Expected<MemCharge> charge = MemCharge::charge(
        budget, engine->footprintBytes(),
        "svc cache planes + lock stripes (" + geom.name() + ")");
    if (!charge.ok())
        return charge.error();
    engine->charge_ = charge.take();
    return engine;
}

OpResult
ConcurrentCache::probe(mem::BlockAddr b) const
{
    OpResult r;
    r.kind = OpKind::Probe;
    r.block = b;
    r.set = cache_.geom().setOf(b);
    SetStripe &s = locks_.stripeFor(r.set);
    for (unsigned attempt = 0; attempt < retries_; ++attempt) {
        std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
        if (s1 & 1) { // a writer is mid-publication
            ++r.retries;
            cpuRelax();
            continue;
        }
        unsigned probes = 0;
        // The tag scan dispatches through the torn-read-tolerant
        // kernel (eq_mask_relaxed, docs/KERNELS.md): element
        // loads may tear against a mid-publication writer, and the
        // sequence re-check below is what discards such a view.
        int way = cache_.probeRelaxed(b, &probes);
        // The acquire fence orders the plane loads above before the
        // sequence re-read: an unchanged sequence proves no writer
        // intervened, so the scan saw a consistent set.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) == s1) {
            r.hit = way >= 0;
            r.way = way;
            r.probes = probes;
            r.version = s1 >> 1;
            r.optimistic = true;
            return r;
        }
        ++r.retries;
    }
    // Persistent interference: serialize with the writers instead
    // of starving.
    std::lock_guard<SpinLock> g(s.lock);
    stallInLock(r.set);
    unsigned probes = 0;
    int way = cache_.probeRelaxed(b, &probes);
    r.hit = way >= 0;
    r.way = way;
    r.probes = probes;
    r.version = s.seq.load(std::memory_order_relaxed) >> 1;
    return r;
}

OpResult
ConcurrentCache::lookup(mem::BlockAddr b)
{
    OpResult r;
    r.kind = OpKind::Lookup;
    r.block = b;
    r.set = cache_.geom().setOf(b);
    SetStripe &s = locks_.stripeFor(r.set);
    std::lock_guard<SpinLock> g(s.lock);
    stallInLock(r.set);
    unsigned probes = 0;
    int way = cache_.probeRelaxed(b, &probes);
    r.probes = probes;
    if (way >= 0) {
        r.hit = true;
        r.way = way;
        std::uint64_t pre = writeBegin(s);
        cache_.touch(r.set, way);
        r.version = writeEnd(s, pre);
        r.mutated = true;
    } else {
        r.version = s.seq.load(std::memory_order_relaxed) >> 1;
    }
    return r;
}

OpResult
ConcurrentCache::fill(mem::BlockAddr b, bool dirty)
{
    OpResult r;
    r.kind = OpKind::Fill;
    r.block = b;
    r.is_write = dirty;
    r.set = cache_.geom().setOf(b);
    SetStripe &s = locks_.stripeFor(r.set);
    std::lock_guard<SpinLock> g(s.lock);
    stallInLock(r.set);
    unsigned probes = 0;
    int way = cache_.probeRelaxed(b, &probes);
    r.probes = probes;
    std::uint64_t pre = writeBegin(s);
    if (way >= 0) {
        // Another session filled the block since the caller's miss:
        // merge instead of double-filling.
        r.hit = true;
        r.way = way;
        cache_.touch(r.set, way);
        if (dirty)
            cache_.setDirty(r.set, way);
    } else {
        mem::FillResult f = cache_.fill(b, dirty);
        r.filled = true;
        r.way = f.way;
        r.evicted = f.evicted;
        r.victim_block = f.victim_block;
        r.victim_dirty = f.victim_dirty;
    }
    r.version = writeEnd(s, pre);
    r.mutated = true;
    return r;
}

OpResult
ConcurrentCache::invalidate(mem::BlockAddr b)
{
    OpResult r;
    r.kind = OpKind::Invalidate;
    r.block = b;
    r.set = cache_.geom().setOf(b);
    SetStripe &s = locks_.stripeFor(r.set);
    std::lock_guard<SpinLock> g(s.lock);
    stallInLock(r.set);
    unsigned probes = 0;
    int way = cache_.probeRelaxed(b, &probes);
    r.probes = probes;
    if (way >= 0) {
        r.hit = true;
        r.way = way;
        std::uint64_t pre = writeBegin(s);
        r.victim_dirty = cache_.invalidate(b);
        r.version = writeEnd(s, pre);
        r.mutated = true;
    } else {
        r.version = s.seq.load(std::memory_order_relaxed) >> 1;
    }
    return r;
}

OpResult
ConcurrentCache::access(mem::BlockAddr b, bool is_write)
{
    OpResult r;
    r.kind = OpKind::Access;
    r.block = b;
    r.is_write = is_write;
    r.set = cache_.geom().setOf(b);
    SetStripe &s = locks_.stripeFor(r.set);
    std::lock_guard<SpinLock> g(s.lock);
    stallInLock(r.set);
    unsigned probes = 0;
    int way = cache_.probeRelaxed(b, &probes);
    r.probes = probes;
    std::uint64_t pre = writeBegin(s);
    if (way >= 0) {
        r.hit = true;
        r.way = way;
        cache_.touch(r.set, way);
        if (is_write)
            cache_.setDirty(r.set, way);
    } else {
        mem::FillResult f = cache_.fill(b, is_write);
        r.filled = true;
        r.way = f.way;
        r.evicted = f.evicted;
        r.victim_block = f.victim_block;
        r.victim_dirty = f.victim_dirty;
    }
    r.version = writeEnd(s, pre);
    r.mutated = true;
    return r;
}

OpResult
ConcurrentCache::apply(OpKind kind, mem::BlockAddr b, bool is_write)
{
    switch (kind) {
      case OpKind::Probe:
        return probe(b);
      case OpKind::Lookup:
        return lookup(b);
      case OpKind::Fill:
        return fill(b, is_write);
      case OpKind::Invalidate:
        return invalidate(b);
      case OpKind::Access:
        return access(b, is_write);
    }
    panic("bad svc op kind");
}

} // namespace svc
} // namespace assoc
