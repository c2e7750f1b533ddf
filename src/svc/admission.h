/**
 * @file
 * Admission control for the cache service: per-tenant token-bucket
 * quotas, a global in-flight cap, and explicit load-shed policies.
 *
 * A service that accepts every request degrades for *all* tenants
 * when *one* floods it. The AdmissionController decides, before any
 * engine work, whether a request runs, runs degraded, or is shed
 * with a structured Error::overloaded() the client can back off on
 * (util/backoff.h).
 *
 * Two independent gates, checked in a fixed order:
 *
 *  1. Per-tenant token bucket (quota). Deliberately driven by
 *     *logical time* — each request is one tick that refills
 *     refill_num/refill_den tokens, fixed-point, no clock reads —
 *     so the bucket's evolution is a pure function of the tenant's
 *     own request stream. Quota verdicts (and the shed_quota /
 *     shed_writes / degraded counters they feed) are therefore
 *     bit-for-bit reproducible across reruns and thread schedules,
 *     which is what lets the chaos campaign diff them.
 *  2. Global in-flight cap: an atomic count over all tenants, kept
 *     only under a cap. Verdicts depend on real thread timing, so
 *     shed_inflight is *excluded* from determinism digests.
 *
 * The quota gate runs first even though the in-flight gate is
 * cheaper: a request that consumes a token and then bounces off the
 * in-flight cap keeps the bucket sequence schedule-independent.
 *
 * Over-quota requests are disposed of by the configured ShedPolicy:
 * reject everything (RejectNew), shed only writes (DropWritesFirst),
 * or shed writes and serve reads degraded — a relaxed Probe with no
 * MRU promotion and no fill (DegradeReads). See docs/SERVICE.md.
 */

#ifndef ASSOC_SVC_ADMISSION_H
#define ASSOC_SVC_ADMISSION_H

#include <atomic>
#include <cstdint>
#include <string>

#include "svc/concurrent_cache.h"
#include "util/error.h"
#include "util/stats.h"

namespace assoc {
namespace svc {

/** What to do with requests that exceed their tenant's quota. */
enum class ShedPolicy : std::uint8_t {
    RejectNew,      ///< shed every over-quota request
    DropWritesFirst,///< shed over-quota writes; reads still run
    DegradeReads,   ///< shed writes; serve reads as relaxed probes
};

/** Printable policy name ("reject-new", ...). */
const char *shedPolicyName(ShedPolicy policy);

/** Parse a --shed-policy flag value; usage error otherwise. */
Expected<ShedPolicy> shedPolicyFromString(const std::string &s);

/** Admission knobs (SvcConfig::admission). */
struct AdmissionConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;
    /** Token-bucket capacity, in whole requests. */
    std::uint64_t quota_burst = 64;
    /** Refill per request tick: refill_num/refill_den tokens. A
     *  tenant's sustainable admit fraction under flood. */
    std::uint64_t refill_num = 1;
    std::uint64_t refill_den = 2;
    /** Global concurrent-request cap across tenants (0 = none). */
    std::uint32_t max_inflight = 0;
    ShedPolicy policy = ShedPolicy::RejectNew;
    /** Seeds the per-tenant initial-credit jitter so same-config
     *  tenants don't exhaust their buckets in lockstep. */
    std::uint64_t seed = 1;
};

/** One quota gate verdict. */
enum class AdmitDecision : std::uint8_t {
    Admit,       ///< run the request as issued
    Degrade,     ///< run it as a relaxed Probe (DegradeReads)
    ShedQuota,   ///< over quota, policy rejects it
    ShedWrite,   ///< over quota and it's a write (write-shedding
                 ///< policies)
};

/** True when (kind, is_write) mutates durable client-visible state:
 *  dirty fills, write accesses, invalidations. The write-shedding
 *  policies shed exactly these. */
inline bool
opIsWrite(OpKind kind, bool is_write)
{
    return kind == OpKind::Invalidate ||
           ((kind == OpKind::Fill || kind == OpKind::Access) &&
            is_write);
}

/**
 * Per-tenant accounting of how the service disposed of requests.
 * Lives inside the tenant's TenantStats shard (same single-writer
 * discipline) and merges exactly.
 *
 * Conservation invariant (checkAdmissionConservation in src/check):
 * every request entering the service layer ends in exactly one
 * bucket, so admitted == completed + shed() + failed() — on every
 * shard and on any merge of shards.
 *
 * Determinism split (fields()): the per-tenant logical-time bucket
 * decides admitted, shed_quota, shed_writes and degraded (counted
 * when the verdict is issued, so a later in-flight bounce cannot
 * perturb it), so they are bit-identical across same-seed reruns.
 * shed_inflight (thread timing) and failed_* (wall clocks, signals)
 * are schedule-dependent, and completed inherits their variance.
 */
struct AdmissionStats
{
    std::uint64_t admitted = 0;   ///< requests entering the layer
    std::uint64_t shed_quota = 0; ///< over quota, RejectNew
    std::uint64_t shed_writes = 0;///< over quota, write-shedding
    std::uint64_t degraded = 0;   ///< verdicts degraded to a probe
    std::uint64_t shed_inflight = 0; ///< bounced off in-flight cap
    std::uint64_t failed_timeout = 0;  ///< deadline already expired
    std::uint64_t failed_cancelled = 0;///< cancel token tripped
    std::uint64_t completed = 0;  ///< ran to completion (any gate)

    std::uint64_t
    shed() const
    {
        return shed_quota + shed_writes + shed_inflight;
    }

    std::uint64_t
    failed() const
    {
        return failed_timeout + failed_cancelled;
    }

    /** The conservation invariant. */
    bool
    conservationHolds() const
    {
        return admitted == completed + shed() + failed();
    }

    /** The field list (util/stats.h), in svc_bench's print order:
     *  the deterministic counters first. */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        constexpr StatClass s = StatClass::Scheduled;
        v("admitted", &AdmissionStats::admitted, d);
        v("shed_quota", &AdmissionStats::shed_quota, d);
        v("shed_writes", &AdmissionStats::shed_writes, d);
        v("degraded", &AdmissionStats::degraded, d);
        v("shed_inflight", &AdmissionStats::shed_inflight, s);
        v("failed_timeout", &AdmissionStats::failed_timeout, s);
        v("failed_cancelled", &AdmissionStats::failed_cancelled, s);
        v("completed", &AdmissionStats::completed, s);
    }
};
static_assert(listsEveryMember<AdmissionStats>());

/**
 * The service-wide admission gate. One instance per CacheService;
 * quota state lives in per-session Buckets (single-threaded like
 * the session itself). The in-flight count is the only shared
 * state, and only a cap keeps it. Thread-safe where shared.
 */
class AdmissionController
{
  public:
    /** A tenant's token bucket. Owned and driven by its session's
     *  one thread; fixed-point tokens scaled by refill_den. */
    class Bucket
    {
      public:
        /** Whole tokens currently available. */
        std::uint64_t
        tokens(const AdmissionConfig &cfg) const
        {
            return cfg.refill_den ? tokens_fp_ / cfg.refill_den : 0;
        }

      private:
        friend class AdmissionController;
        std::uint64_t tokens_fp_ = 0;
    };

    explicit AdmissionController(const AdmissionConfig &cfg);

    const AdmissionConfig &config() const { return cfg_; }

    /** A fresh bucket for @p tenant with seeded initial credit:
     *  uniform in [burst/2, burst] tokens, a pure function of
     *  (cfg.seed, tenant). */
    Bucket makeBucket(std::uint32_t tenant) const;

    /**
     * The quota gate: tick @p bucket (refill, then try to consume
     * one whole token) and rule on a request of shape
     * (@p kind, @p is_write). Pure function of the bucket state and
     * the request — no clocks, no shared state.
     */
    AdmitDecision checkQuota(Bucket &bucket, OpKind kind,
                             bool is_write) const;

    /** RAII occupancy of one in-flight slot; releases on
     *  destruction. Empty (moved-from / failed) guards hold
     *  nothing. */
    class InflightGuard
    {
      public:
        InflightGuard() = default;

        InflightGuard(InflightGuard &&other) noexcept
            : ctrl_(other.ctrl_)
        {
            other.ctrl_ = nullptr;
        }

        InflightGuard &
        operator=(InflightGuard &&other) noexcept
        {
            if (this != &other) {
                release();
                ctrl_ = other.ctrl_;
                other.ctrl_ = nullptr;
            }
            return *this;
        }

        InflightGuard(const InflightGuard &) = delete;
        InflightGuard &operator=(const InflightGuard &) = delete;

        ~InflightGuard() { release(); }

        void
        release()
        {
            if (ctrl_)
                ctrl_->leave();
            ctrl_ = nullptr;
        }

        bool held() const { return ctrl_ != nullptr; }

      private:
        friend class AdmissionController;
        explicit InflightGuard(AdmissionController *c) : ctrl_(c) {}
        AdmissionController *ctrl_ = nullptr;
    };

    /**
     * The in-flight gate: claim a slot, or fail when max_inflight
     * slots are already taken (the caller records shed_inflight and
     * returns Error::overloaded()). Uncapped (cap 0 or admission off)
     * it returns an empty guard and writes nothing. Thread-safe.
     */
    Expected<InflightGuard> tryEnter();

    /** Requests holding an in-flight slot; 0 when uncapped. */
    std::uint32_t
    inflight() const
    {
        return inflight_.load(std::memory_order_relaxed);
    }

    /** High-water mark of inflight() (0 when uncapped). */
    std::uint32_t
    inflightPeak() const
    {
        return inflight_peak_.load(std::memory_order_relaxed);
    }

  private:
    void leave() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

    AdmissionConfig cfg_;
    std::atomic<std::uint32_t> inflight_{0};
    std::atomic<std::uint32_t> inflight_peak_{0};
};

} // namespace svc
} // namespace assoc

#endif // ASSOC_SVC_ADMISSION_H
