/**
 * @file
 * The multi-tenant cache service: client sessions over the shared
 * concurrent engine.
 *
 * A CacheService owns one ConcurrentCache plus the bookkeeping that
 * makes it consumable by N client threads:
 *
 *  - openSession() hands out Session objects. Each session is a
 *    tenant: it carries a private TenantStats shard and (optionally)
 *    a private HistoryLog, both unsynchronized because exactly one
 *    client thread drives a session. The engine underneath is fully
 *    thread-safe, so any number of sessions operate concurrently.
 *  - Optional tenant isolation: with tenant_salt_bits > 0, each
 *    session's block addresses are XOR-salted with its tenant id in
 *    the top (full-tag) bits. Tenants then live in disjoint tag
 *    spaces — they share capacity and contend in the same sets, but
 *    never alias each other's blocks (a private-address cache
 *    service). Salting touches only tag bits, never the set index,
 *    so set partitioning arguments are unaffected.
 *  - Deterministic aggregation: totalStats() merges the session
 *    shards in session-open order, and every counter merge is
 *    exact, so a partitioned concurrent replay aggregates
 *    bit-for-bit equal to its single-thread reference (the
 *    stats-merge invariant checked in src/check).
 *
 * Footprint (engine planes + lock stripes + every session's shard
 * and history) is charged to the MemBudget passed at creation;
 * openSession() fails with Error::budget() instead of ballooning.
 *
 * Threading contract: session methods are safe to call from the
 * session's one owning thread while other sessions run; openSession
 * is internally locked and may be called at any time; totalStats /
 * collectHistory / engine().cache() want a quiesced service (no
 * in-flight client ops).
 */

#ifndef ASSOC_SVC_SERVICE_H
#define ASSOC_SVC_SERVICE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "svc/admission.h"
#include "svc/concurrent_cache.h"
#include "svc/history.h"
#include "svc/tenant_stats.h"
#include "util/cancel.h"
#include "util/error.h"

namespace assoc {
namespace svc {

class CacheService;

/** Service-level configuration. */
struct SvcConfig
{
    /** Engine shape (policy, stripe cap, optimistic retries). */
    ConcurrentCacheConfig engine;
    /** Record per-session operation histories for the
     *  serializability checker. */
    bool record_history = false;
    /** Per-session history capacity in events (when recording). */
    std::size_t history_capacity = 1u << 16;
    /** XOR the tenant id into this many top (tag) bits of every
     *  block address: disjoint per-tenant address spaces. 0 = all
     *  tenants share one address space. */
    unsigned tenant_salt_bits = 0;
    /** Overload safety: per-tenant quotas, global in-flight cap,
     *  shed policy (svc/admission.h). Off by default; only the
     *  Session::request() path consults it. */
    AdmissionConfig admission;
};

/**
 * One client's handle on the service. Obtained from
 * CacheService::openSession(); owned by the service (stable
 * pointer). Drive it from a single thread. Cache-line aligned, so
 * the stats shard and quota bucket a request writes share no line
 * with another session or heap object.
 */
class alignas(64) Session
{
  public:
    /** Tenant id (dense, in session-open order). */
    std::uint32_t tenant() const { return tenant_; }

    const std::string &name() const { return name_; }

    // --- block-address operations (the fuzz/replay interface) ----
    OpResult probe(mem::BlockAddr b);
    OpResult lookup(mem::BlockAddr b);
    OpResult fill(mem::BlockAddr b, bool dirty);
    OpResult invalidate(mem::BlockAddr b);
    OpResult access(mem::BlockAddr b, bool is_write);
    /** Dispatch @p kind (@p is_write doubles as Fill's dirty bit). */
    OpResult apply(OpKind kind, mem::BlockAddr b, bool is_write);

    // --- byte-address convenience (the client-facing interface) --
    OpResult probeAddr(trace::Addr a);
    OpResult accessAddr(trace::Addr a, bool is_write);

    // --- the overload-safe request path ---------------------------
    /**
     * Chain this session's requests to @p token: a tripped token
     * (explicit cancel, watchdog, SIGINT/SIGTERM, token deadline)
     * fails subsequent request() calls with the token's structured
     * error. Not owned; null detaches. Set from the session's own
     * thread.
     */
    void bindCancel(const CancelToken *token) { cancel_ = token; }

    const CancelToken *boundCancel() const { return cancel_; }

    /**
     * Issue one operation through the full service layer:
     * cancellation and @p deadline checks, per-tenant quota, the
     * global in-flight cap, and the configured shed policy — in
     * that order, all *outside* any striped-lock critical section
     * (a shed or cancelled request never holds a lock). Sheds
     * surface as Error::overloaded() (exit 5; clients retry with
     * util/backoff.h), expired deadlines as Error::timeout(), trips
     * of the bound token as that token's error. Every call lands in
     * exactly one AdmissionStats bucket (the conservation
     * invariant). Under DegradeReads an over-quota read completes
     * as a relaxed Probe of the same block — recorded as a Probe in
     * the stats shard, flagged in AdmissionStats::degraded.
     */
    Expected<OpResult> request(OpKind kind, mem::BlockAddr b,
                               bool is_write,
                               const Deadline &deadline
                               = Deadline::never());

    /** This tenant's quota bucket (whole tokens; for tests). */
    std::uint64_t quotaTokens() const;

    /** Chaos/testing hook: empty this tenant's bucket in place (the
     *  mid-stream budget-squeeze fault). Refill continues from
     *  zero. Call from the session's own thread — the squeeze is
     *  then a pure function of the stream position, so shed counts
     *  stay deterministic. */
    void drainQuota() { bucket_ = AdmissionController::Bucket(); }

    /** This tenant's statistics shard. */
    const TenantStats &stats() const { return stats_; }

    /** This tenant's history (empty unless the service records). */
    const HistoryLog &history() const { return history_; }

    /** The block address the engine actually sees for @p b once the
     *  tenant salt is applied (exposed for tests and checkers). */
    mem::BlockAddr saltedBlock(mem::BlockAddr b) const;

  private:
    friend class CacheService;

    Session(CacheService *svc, std::uint32_t tenant, std::string name,
            std::size_t history_capacity, MemCharge charge);

    OpResult finish(const OpResult &r);

    CacheService *svc_;
    std::uint32_t tenant_;
    std::string name_;
    TenantStats stats_;
    HistoryLog history_;
    MemCharge charge_;
    const CancelToken *cancel_ = nullptr; ///< not owned
    AdmissionController::Bucket bucket_;
};

/** The service. Create once, open a session per client thread. */
class CacheService
{
  public:
    /**
     * Build a service over @p geom. The engine footprint is charged
     * to @p budget immediately; each openSession() charges its
     * session's shard and history on top.
     */
    static Expected<std::unique_ptr<CacheService>>
    create(const mem::CacheGeometry &geom, const SvcConfig &cfg = {},
           MemBudget *budget = nullptr);

    /**
     * Open a new tenant session. Thread-safe; the returned pointer
     * stays valid for the service's lifetime.
     */
    Expected<Session *> openSession(std::string name = "");

    /** Sessions opened so far. */
    std::size_t sessionCount() const;

    /** Session @p tenant (in open order). */
    const Session &session(std::uint32_t tenant) const;

    /**
     * Merge every session's shard, in session-open order. Exact and
     * deterministic for the outcome counters. Quiesced only.
     */
    TenantStats totalStats() const;

    /**
     * Concatenate every session's history events, in session-open
     * order (the checker re-sorts per set by version). Quiesced
     * only.
     * @param overflowed set true when any session dropped events.
     */
    std::vector<HistoryEvent> collectHistory(bool *overflowed
                                             = nullptr) const;

    /** The shared engine (for direct use and inspection). */
    ConcurrentCache &engine() { return *engine_; }
    const ConcurrentCache &engine() const { return *engine_; }

    /** The admission gate Session::request() consults. */
    AdmissionController &admission() { return admission_; }
    const AdmissionController &admission() const { return admission_; }

    const mem::CacheGeometry &geom() const { return engine_->geom(); }
    const SvcConfig &config() const { return cfg_; }

    /** Engine + lock table + all session shards/histories. */
    std::uint64_t footprintBytes() const;

  private:
    CacheService(std::unique_ptr<ConcurrentCache> engine,
                 const SvcConfig &cfg, MemBudget *budget);

    SvcConfig cfg_;
    MemBudget *budget_; ///< not owned; may be null
    std::unique_ptr<ConcurrentCache> engine_;
    AdmissionController admission_;

    mutable std::mutex open_mutex_; ///< guards sessions_ growth
    std::vector<std::unique_ptr<Session>> sessions_;
};

} // namespace svc
} // namespace assoc

#endif // ASSOC_SVC_SERVICE_H
