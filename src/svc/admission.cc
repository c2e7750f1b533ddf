#include "svc/admission.h"

#include "util/rng.h"

namespace assoc {
namespace svc {

const char *
shedPolicyName(ShedPolicy policy)
{
    switch (policy) {
      case ShedPolicy::RejectNew:
        return "reject-new";
      case ShedPolicy::DropWritesFirst:
        return "drop-writes-first";
      case ShedPolicy::DegradeReads:
        return "degrade-reads";
    }
    return "unknown";
}

Expected<ShedPolicy>
shedPolicyFromString(const std::string &s)
{
    if (s == "reject-new" || s == "reject")
        return ShedPolicy::RejectNew;
    if (s == "drop-writes-first" || s == "drop-writes")
        return ShedPolicy::DropWritesFirst;
    if (s == "degrade-reads" || s == "degrade")
        return ShedPolicy::DegradeReads;
    return Error::usage(
        "unknown shed policy '" + s +
        "' (want reject-new|drop-writes-first|degrade-reads)");
}

AdmissionController::AdmissionController(const AdmissionConfig &cfg)
    : cfg_(cfg)
{
    // A zero denominator or burst would make every bucket
    // permanently empty by accident; normalize to the disabled
    // equivalents instead of dividing by zero later.
    if (cfg_.refill_den == 0)
        cfg_.refill_den = 1;
    if (cfg_.refill_num > cfg_.refill_den)
        cfg_.refill_num = cfg_.refill_den; // >1 token/tick = no quota
    // A full bucket plus one tick's refill must fit in 64 bits, or
    // checkQuota's refill wraps the bucket to empty and sheds
    // everything. Only a denominator above 2^63 leaves no room for
    // a single token; halving both terms of the rate makes room.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    if (cfg_.refill_den > kMax - cfg_.refill_num) {
        cfg_.refill_num >>= 1;
        cfg_.refill_den >>= 1;
    }
    std::uint64_t room = (kMax - cfg_.refill_num) / cfg_.refill_den;
    if (cfg_.quota_burst > room)
        cfg_.quota_burst = room;
    if (cfg_.quota_burst == 0)
        cfg_.quota_burst = 1;
}

AdmissionController::Bucket
AdmissionController::makeBucket(std::uint32_t tenant) const
{
    Bucket b;
    if (!cfg_.enabled)
        return b;
    // Start between half-full and full, the point drawn per tenant:
    // same-shape tenants then cross "empty" at different request
    // counts instead of shedding in lockstep on the first burst.
    std::uint64_t full = cfg_.quota_burst * cfg_.refill_den;
    std::uint64_t half = full / 2;
    Pcg32 rng(cfg_.seed, 0xadb1u ^ tenant);
    b.tokens_fp_ = half + rng.next64() % (full - half + 1);
    return b;
}

AdmitDecision
AdmissionController::checkQuota(Bucket &bucket, OpKind kind,
                                bool is_write) const
{
    if (!cfg_.enabled)
        return AdmitDecision::Admit;
    std::uint64_t full = cfg_.quota_burst * cfg_.refill_den;
    bucket.tokens_fp_ += cfg_.refill_num;
    if (bucket.tokens_fp_ > full)
        bucket.tokens_fp_ = full;
    if (bucket.tokens_fp_ >= cfg_.refill_den) {
        bucket.tokens_fp_ -= cfg_.refill_den;
        return AdmitDecision::Admit;
    }
    switch (cfg_.policy) {
      case ShedPolicy::RejectNew:
        return AdmitDecision::ShedQuota;
      case ShedPolicy::DropWritesFirst:
        return opIsWrite(kind, is_write) ? AdmitDecision::ShedWrite
                                         : AdmitDecision::Admit;
      case ShedPolicy::DegradeReads:
        return opIsWrite(kind, is_write) ? AdmitDecision::ShedWrite
                                         : AdmitDecision::Degrade;
    }
    return AdmitDecision::ShedQuota;
}

Expected<AdmissionController::InflightGuard>
AdmissionController::tryEnter()
{
    // With no cap there is nothing to enforce, so keep no count: an
    // uncapped request then writes no service-wide cache line.
    if (!cfg_.enabled || cfg_.max_inflight == 0)
        return Expected<InflightGuard>(InflightGuard());
    std::uint32_t now =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now > cfg_.max_inflight) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        return Error::overloaded(
            "service at its in-flight cap (" +
            std::to_string(cfg_.max_inflight) +
            " concurrent requests)");
    }
    std::uint32_t hi = inflight_peak_.load(std::memory_order_relaxed);
    while (hi < now &&
           !inflight_peak_.compare_exchange_weak(
               hi, now, std::memory_order_relaxed)) {
    }
    return Expected<InflightGuard>(InflightGuard(this));
}

} // namespace svc
} // namespace assoc
