/**
 * @file
 * Per-tenant statistics shards.
 *
 * Each client session owns one TenantStats and records into it with
 * no synchronization at all — sharding per tenant is what makes the
 * service's statistics scale with thread count. Shards merge
 * deterministically: every counter is an exact integer sum, and the
 * probe-cost accumulators are MeanAccums over small integer costs,
 * whose double sums are exact and therefore reassociation-safe. A
 * partitioned N-thread replay consequently merges to totals that are
 * bit-for-bit identical to a single-thread run of the same ops
 * (enforced by checkStatsMerge in src/check and the tests/svc
 * suite).
 *
 * The schedule-dependent counters (optimistic vs locked probe
 * serving, seqlock retries) are observability data about the
 * locking protocol, not about the cache: they legitimately vary
 * run-to-run, so fields() lists them Scheduled.
 */

#ifndef ASSOC_SVC_TENANT_STATS_H
#define ASSOC_SVC_TENANT_STATS_H

#include <cstdint>

#include "core/probe_meter.h"
#include "svc/admission.h"
#include "svc/concurrent_cache.h"
#include "util/stats.h"

namespace assoc {
namespace svc {

/** One tenant's statistics shard. */
struct TenantStats
{
    std::uint64_t ops = 0; ///< every recorded operation

    std::uint64_t probe_ops = 0;
    std::uint64_t probe_hits = 0;
    std::uint64_t lookups = 0;
    std::uint64_t lookup_hits = 0;
    std::uint64_t fills = 0;
    std::uint64_t fill_hits = 0; ///< fills merged into a racing fill
    std::uint64_t invalidates = 0;
    std::uint64_t invalidate_hits = 0;
    std::uint64_t accesses = 0;
    std::uint64_t access_hits = 0;

    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;

    /** MRU-scan cost of ops that found their block (the paper's
     *  "hit at recency distance d costs d probes"). */
    MeanAccum hit_probes;
    /** Scan cost of ops that missed (a full Naive scan). */
    MeanAccum miss_probes;

    std::uint64_t optimistic_reads = 0; ///< probes served lock-free
    std::uint64_t locked_reads = 0;     ///< probes that fell back
    std::uint64_t seqlock_retries = 0;  ///< torn optimistic attempts

    /** Admission accounting (Session::request only; empty when
     *  clients drive the raw per-op interface). */
    AdmissionStats admission;

    /** Fold one operation's result into the shard. */
    void
    recordOp(const OpResult &r)
    {
        ++ops;
        switch (r.kind) {
          case OpKind::Probe:
            ++probe_ops;
            probe_hits += r.hit;
            if (r.optimistic)
                ++optimistic_reads;
            else
                ++locked_reads;
            seqlock_retries += r.retries;
            break;
          case OpKind::Lookup:
            ++lookups;
            lookup_hits += r.hit;
            break;
          case OpKind::Fill:
            ++fills;
            fill_hits += r.hit;
            break;
          case OpKind::Invalidate:
            ++invalidates;
            invalidate_hits += r.hit;
            break;
          case OpKind::Access:
            ++accesses;
            access_hits += r.hit;
            break;
        }
        evictions += r.evicted;
        dirty_evictions += r.evicted && r.victim_dirty;
        if (r.hit)
            hit_probes.record(static_cast<double>(r.probes));
        else
            miss_probes.record(static_cast<double>(r.probes));
    }

    /** Ops that found their block (any kind). */
    std::uint64_t
    hits() const
    {
        return probe_hits + lookup_hits + fill_hits +
               invalidate_hits + access_hits;
    }

    /**
     * Export the shard in the ProbeMeter currency: hit scan costs
     * as read-in-hit probes, miss scan costs as read-in-miss
     * probes, and one zero-probe write-back sample per dirty
     * eviction (the paper's write-back optimization: the upper
     * level remembers the victim's way, so writing it back costs
     * no probes).
     */
    core::ProbeStats
    toProbeStats() const
    {
        core::ProbeStats ps;
        ps.read_in_hits = hit_probes;
        ps.read_in_misses = miss_probes;
        ps.write_backs.record(0.0, dirty_evictions);
        return ps;
    }

    /** The field list (util/stats.h). */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        constexpr StatClass s = StatClass::Scheduled;
        v("ops", &TenantStats::ops, d);
        v("probe_ops", &TenantStats::probe_ops, d);
        v("probe_hits", &TenantStats::probe_hits, d);
        v("lookups", &TenantStats::lookups, d);
        v("lookup_hits", &TenantStats::lookup_hits, d);
        v("fills", &TenantStats::fills, d);
        v("fill_hits", &TenantStats::fill_hits, d);
        v("invalidates", &TenantStats::invalidates, d);
        v("invalidate_hits", &TenantStats::invalidate_hits, d);
        v("accesses", &TenantStats::accesses, d);
        v("access_hits", &TenantStats::access_hits, d);
        v("evictions", &TenantStats::evictions, d);
        v("dirty_evictions", &TenantStats::dirty_evictions, d);
        v("hit_probes", &TenantStats::hit_probes, d);
        v("miss_probes", &TenantStats::miss_probes, d);
        v("optimistic_reads", &TenantStats::optimistic_reads, s);
        v("locked_reads", &TenantStats::locked_reads, s);
        v("seqlock_retries", &TenantStats::seqlock_retries, s);
        // Quota verdicts depend on how requests split into sessions;
        // same-seed reruns compare AdmissionStats' own list instead.
        v("admission", &TenantStats::admission, s);
    }
};
static_assert(listsEveryMember<TenantStats>());

} // namespace svc
} // namespace assoc

#endif // ASSOC_SVC_TENANT_STATS_H
