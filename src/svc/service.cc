#include "svc/service.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace svc {

// --- Session -----------------------------------------------------

Session::Session(CacheService *svc, std::uint32_t tenant,
                 std::string name, std::size_t history_capacity,
                 MemCharge charge)
    : svc_(svc), tenant_(tenant), name_(std::move(name)),
      history_(history_capacity), charge_(std::move(charge))
{}

mem::BlockAddr
Session::saltedBlock(mem::BlockAddr b) const
{
    unsigned bits = svc_->config().tenant_salt_bits;
    if (bits == 0)
        return b;
    std::uint32_t salt = tenant_ & maskBits(bits);
    return b ^ (salt << (32u - bits));
}

OpResult
Session::finish(const OpResult &r)
{
    stats_.recordOp(r);
    if (history_.capacity() > 0) {
        HistoryEvent e;
        e.tenant = tenant_;
        e.op = r;
        history_.record(e);
    }
    return r;
}

OpResult
Session::probe(mem::BlockAddr b)
{
    return finish(svc_->engine().probe(saltedBlock(b)));
}

OpResult
Session::lookup(mem::BlockAddr b)
{
    return finish(svc_->engine().lookup(saltedBlock(b)));
}

OpResult
Session::fill(mem::BlockAddr b, bool dirty)
{
    return finish(svc_->engine().fill(saltedBlock(b), dirty));
}

OpResult
Session::invalidate(mem::BlockAddr b)
{
    return finish(svc_->engine().invalidate(saltedBlock(b)));
}

OpResult
Session::access(mem::BlockAddr b, bool is_write)
{
    return finish(svc_->engine().access(saltedBlock(b), is_write));
}

OpResult
Session::apply(OpKind kind, mem::BlockAddr b, bool is_write)
{
    return finish(
        svc_->engine().apply(kind, saltedBlock(b), is_write));
}

Expected<OpResult>
Session::request(OpKind kind, mem::BlockAddr b, bool is_write,
                 const Deadline &deadline)
{
    AdmissionStats &a = stats_.admission;
    ++a.admitted;
    // Cancellation first: a shutdown in progress must not consume
    // quota or an in-flight slot. Checked here — between critical
    // sections — never under a stripe lock.
    if (cancel_) {
        Expected<void> alive = cancel_->checkpoint();
        if (!alive.ok()) {
            Error e = alive.takeError();
            if (e.code() == ErrorCode::Timeout)
                ++a.failed_timeout;
            else
                ++a.failed_cancelled;
            return e.withContext("svc request from " + name_);
        }
    }
    // Then the request's own deadline (propagated, per-request; the
    // bound token's deadline was already consulted above).
    if (deadline.expired()) {
        ++a.failed_timeout;
        return Error::timeout("request deadline exceeded before "
                              "admission (" + name_ + ")");
    }
    // Quota before the in-flight cap: the bucket must see every
    // request of its tenant's stream so its verdicts stay
    // schedule-independent (svc/admission.h).
    AdmitDecision d =
        svc_->admission().checkQuota(bucket_, kind, is_write);
    switch (d) {
      case AdmitDecision::ShedQuota:
        ++a.shed_quota;
        return Error::overloaded(
            "tenant " + name_ + " over quota (policy " +
            shedPolicyName(svc_->admission().config().policy) + ")");
      case AdmitDecision::ShedWrite:
        ++a.shed_writes;
        return Error::overloaded(
            "tenant " + name_ + " over quota: write shed (policy " +
            shedPolicyName(svc_->admission().config().policy) + ")");
      case AdmitDecision::Degrade:
        // Counted at verdict time, not completion: the verdict is a
        // pure function of the tenant's stream, so the counter stays
        // schedule-independent even when the in-flight gate later
        // bounces the op (which lands in shed_inflight instead).
        ++a.degraded;
        break;
      case AdmitDecision::Admit:
        break;
    }
    Expected<AdmissionController::InflightGuard> slot =
        svc_->admission().tryEnter();
    if (!slot.ok()) {
        ++a.shed_inflight;
        Error e = slot.error();
        return e.withContext("svc request from " + name_);
    }
    // Last look before the critical section: ops past this point
    // run to completion (cancelling mid-operation would tear the
    // engine's per-set serialization).
    if (cancel_) {
        Expected<void> alive = cancel_->checkpoint();
        if (!alive.ok()) {
            Error e = alive.takeError();
            if (e.code() == ErrorCode::Timeout)
                ++a.failed_timeout;
            else
                ++a.failed_cancelled;
            return e.withContext("svc request from " + name_);
        }
    }
    if (deadline.expired()) {
        ++a.failed_timeout;
        return Error::timeout("request deadline exceeded awaiting "
                              "admission (" + name_ + ")");
    }
    OpResult r = d == AdmitDecision::Degrade
                     ? finish(svc_->engine().probe(saltedBlock(b)))
                     : finish(svc_->engine().apply(
                           kind, saltedBlock(b), is_write));
    ++a.completed;
    return Expected<OpResult>(r);
}

std::uint64_t
Session::quotaTokens() const
{
    return bucket_.tokens(svc_->admission().config());
}

// --- CacheService ------------------------------------------------

CacheService::CacheService(std::unique_ptr<ConcurrentCache> engine,
                           const SvcConfig &cfg, MemBudget *budget)
    : cfg_(cfg), budget_(budget), engine_(std::move(engine)),
      admission_(cfg.admission)
{}

Expected<std::unique_ptr<CacheService>>
CacheService::create(const mem::CacheGeometry &geom,
                     const SvcConfig &cfg, MemBudget *budget)
{
    if (cfg.tenant_salt_bits > geom.fullTagBits())
        return Error::usage(
            "tenant_salt_bits exceeds the geometry's tag width (" +
            std::to_string(geom.fullTagBits()) +
            " bits): the salt would corrupt set indexing");
    Expected<std::unique_ptr<ConcurrentCache>> engine =
        ConcurrentCache::create(geom, cfg.engine, budget);
    if (!engine.ok())
        return engine.error();
    return std::unique_ptr<CacheService>(
        new CacheService(engine.take(), cfg, budget));
}

Expected<Session *>
CacheService::openSession(std::string name)
{
    std::lock_guard<std::mutex> g(open_mutex_);
    std::uint32_t tenant =
        static_cast<std::uint32_t>(sessions_.size());
    if (name.empty())
        name = "tenant-" + std::to_string(tenant);
    std::size_t cap =
        cfg_.record_history ? cfg_.history_capacity : 0;
    std::uint64_t bytes =
        sizeof(Session) +
        static_cast<std::uint64_t>(cap) * sizeof(HistoryEvent);
    Expected<MemCharge> charge =
        MemCharge::charge(budget_, bytes, "svc session " + name);
    if (!charge.ok())
        return charge.error();
    sessions_.emplace_back(std::unique_ptr<Session>(
        new Session(this, tenant, std::move(name), cap,
                    charge.take())));
    sessions_.back()->bucket_ = admission_.makeBucket(tenant);
    return sessions_.back().get();
}

const Session &
CacheService::session(std::uint32_t tenant) const
{
    std::lock_guard<std::mutex> g(open_mutex_);
    panicIf(tenant >= sessions_.size(), "bad tenant id");
    return *sessions_[tenant];
}

TenantStats
CacheService::totalStats() const
{
    std::lock_guard<std::mutex> g(open_mutex_);
    TenantStats total;
    for (const auto &s : sessions_)
        mergeStats(total, s->stats());
    return total;
}

std::vector<HistoryEvent>
CacheService::collectHistory(bool *overflowed) const
{
    std::lock_guard<std::mutex> g(open_mutex_);
    std::vector<HistoryEvent> all;
    bool dropped = false;
    for (const auto &s : sessions_) {
        const HistoryLog &log = s->history();
        all.insert(all.end(), log.events().begin(),
                   log.events().end());
        dropped = dropped || log.overflowed();
    }
    if (overflowed)
        *overflowed = dropped;
    return all;
}

std::uint64_t
CacheService::footprintBytes() const
{
    std::lock_guard<std::mutex> g(open_mutex_);
    std::uint64_t bytes = engine_->footprintBytes();
    for (const auto &s : sessions_)
        bytes += sizeof(Session) + s->history().footprintBytes();
    return bytes;
}

} // namespace svc
} // namespace assoc
