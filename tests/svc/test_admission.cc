// Unit tests for the overload-safe service layer (svc/admission.h
// + Session::request): token-bucket quota verdicts and their
// determinism, shed policies, the global in-flight cap, deadline
// propagation, the conservation invariant, and cancellation
// delivered mid-service-operation.

#include "svc/admission.h"

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/svc_check.h"
#include "svc/service.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace {

using namespace assoc;
using svc::AdmissionConfig;
using svc::AdmissionController;
using svc::AdmissionStats;
using svc::AdmitDecision;
using svc::CacheService;
using svc::OpKind;
using svc::Session;
using svc::ShedPolicy;
using svc::SvcConfig;

std::unique_ptr<CacheService>
makeService(const SvcConfig &cfg = {},
            const mem::CacheGeometry &geom = mem::CacheGeometry(1024,
                                                                16, 2))
{
    Expected<std::unique_ptr<CacheService>> e =
        CacheService::create(geom, cfg);
    if (!e.ok())
        throw std::runtime_error("create failed: " +
                                 e.error().message());
    return e.take();
}

Session *
openSession(CacheService &service, const std::string &name = "")
{
    Expected<Session *> s = service.openSession(name);
    if (!s.ok())
        throw std::runtime_error("openSession failed: " +
                                 s.error().message());
    return s.take();
}

AdmissionConfig
floodConfig(ShedPolicy policy = ShedPolicy::RejectNew)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.quota_burst = 8;
    cfg.refill_num = 1;
    cfg.refill_den = 2;
    cfg.policy = policy;
    cfg.seed = 7;
    return cfg;
}

TEST(ShedPolicyNames, RoundTrip)
{
    for (ShedPolicy p :
         {ShedPolicy::RejectNew, ShedPolicy::DropWritesFirst,
          ShedPolicy::DegradeReads}) {
        Expected<ShedPolicy> back =
            svc::shedPolicyFromString(svc::shedPolicyName(p));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), p);
    }
    Expected<ShedPolicy> bad = svc::shedPolicyFromString("nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), ErrorCode::Usage);
}

TEST(OpIsWrite, ClassifiesMutations)
{
    EXPECT_TRUE(svc::opIsWrite(OpKind::Invalidate, false));
    EXPECT_TRUE(svc::opIsWrite(OpKind::Fill, true));
    EXPECT_TRUE(svc::opIsWrite(OpKind::Access, true));
    EXPECT_FALSE(svc::opIsWrite(OpKind::Access, false));
    EXPECT_FALSE(svc::opIsWrite(OpKind::Probe, false));
    EXPECT_FALSE(svc::opIsWrite(OpKind::Lookup, false));
}

TEST(AdmissionBucket, SeededInitialCreditIsDeterministic)
{
    AdmissionController a(floodConfig()), b(floodConfig());
    for (std::uint32_t tenant = 0; tenant < 8; ++tenant) {
        AdmissionController::Bucket x = a.makeBucket(tenant);
        AdmissionController::Bucket y = b.makeBucket(tenant);
        EXPECT_EQ(x.tokens(a.config()), y.tokens(b.config()));
        // Uniform in [burst/2, burst].
        EXPECT_GE(x.tokens(a.config()),
                  a.config().quota_burst / 2);
        EXPECT_LE(x.tokens(a.config()), a.config().quota_burst);
    }
}

TEST(AdmissionBucket, DisabledAdmitsEverything)
{
    AdmissionConfig cfg; // enabled = false
    AdmissionController ctrl(cfg);
    AdmissionController::Bucket b = ctrl.makeBucket(0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(ctrl.checkQuota(b, OpKind::Access, true),
                  AdmitDecision::Admit);
}

TEST(AdmissionBucket, FloodSettlesAtTheRefillRate)
{
    AdmissionController ctrl(floodConfig());
    AdmissionController::Bucket b = ctrl.makeBucket(3);
    // Burn the initial credit, then measure the steady state: at
    // refill 1/2 every other request is admitted, exactly.
    for (int i = 0; i < 100; ++i)
        ctrl.checkQuota(b, OpKind::Access, false);
    int admits = 0;
    for (int i = 0; i < 1000; ++i)
        if (ctrl.checkQuota(b, OpKind::Access, false) ==
            AdmitDecision::Admit)
            ++admits;
    EXPECT_EQ(admits, 500);
}

TEST(AdmissionBucket, VerdictSequenceIsAPureFunctionOfTheStream)
{
    AdmissionController ctrl(floodConfig());
    AdmissionController::Bucket x = ctrl.makeBucket(1);
    AdmissionController::Bucket y = ctrl.makeBucket(1);
    Pcg32 ops(9, 17);
    for (int i = 0; i < 2000; ++i) {
        bool is_write = ops.chance(0.3);
        EXPECT_EQ(ctrl.checkQuota(x, OpKind::Access, is_write),
                  ctrl.checkQuota(y, OpKind::Access, is_write))
            << "diverged at op " << i;
    }
}

TEST(AdmissionBucket, BurstIsClampedSoTheBucketCannotWrap)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    AdmissionConfig wraps = floodConfig();
    // burst * refill_den = 2^64: the bucket wrapped to empty.
    wraps.quota_burst = std::uint64_t{1} << 32;
    wraps.refill_num = 1;
    wraps.refill_den = std::uint64_t{1} << 32;
    AdmissionConfig rate_one = floodConfig();
    // refill_den + refill_num = 2^64: no room for a single token.
    rate_one.refill_num = std::uint64_t{1} << 63;
    rate_one.refill_den = std::uint64_t{1} << 63;
    for (const AdmissionConfig &cfg : {wraps, rate_one}) {
        AdmissionController ctrl(cfg);
        const AdmissionConfig &c = ctrl.config();
        EXPECT_GE(c.quota_burst, 1u);
        EXPECT_LE(c.quota_burst, (kMax - c.refill_num) / c.refill_den);
        // Seeded credit (at least half of a huge burst) or a refill
        // of one token per tick admits every request below.
        AdmissionController::Bucket b = ctrl.makeBucket(0);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(ctrl.checkQuota(b, OpKind::Access, true),
                      AdmitDecision::Admit)
                << "request " << i;
    }
    // An ordinary config is left as given.
    AdmissionController plain(floodConfig());
    EXPECT_EQ(plain.config().quota_burst, floodConfig().quota_burst);
}

TEST(AdmissionBucket, PolicyControlsOverQuotaDisposition)
{
    for (ShedPolicy p :
         {ShedPolicy::RejectNew, ShedPolicy::DropWritesFirst,
          ShedPolicy::DegradeReads}) {
        // Zero refill: once the initial credit is gone, every
        // request is over quota — the policy's disposition is then
        // observable on any request shape.
        AdmissionConfig cfg = floodConfig(p);
        cfg.refill_num = 0;
        cfg.refill_den = 1;
        AdmissionController ctrl(cfg);
        AdmissionController::Bucket b = ctrl.makeBucket(0);
        AdmitDecision over = AdmitDecision::Admit;
        for (int i = 0; i < 200 && over == AdmitDecision::Admit;
             ++i)
            over = ctrl.checkQuota(b, OpKind::Access, true);
        ASSERT_NE(over, AdmitDecision::Admit);
        switch (p) {
          case ShedPolicy::RejectNew:
            EXPECT_EQ(over, AdmitDecision::ShedQuota);
            break;
          case ShedPolicy::DropWritesFirst:
          case ShedPolicy::DegradeReads:
            EXPECT_EQ(over, AdmitDecision::ShedWrite);
            break;
        }
        // An over-quota *read* at the same (still empty) state.
        AdmitDecision read =
            ctrl.checkQuota(b, OpKind::Access, false);
        switch (p) {
          case ShedPolicy::RejectNew:
            EXPECT_EQ(read, AdmitDecision::ShedQuota);
            break;
          case ShedPolicy::DropWritesFirst:
            EXPECT_EQ(read, AdmitDecision::Admit);
            break;
          case ShedPolicy::DegradeReads:
            EXPECT_EQ(read, AdmitDecision::Degrade);
            break;
        }
    }
}

TEST(InflightGate, CapBouncesTheOverflowAndReleasesOnDrop)
{
    AdmissionConfig cfg = floodConfig();
    cfg.max_inflight = 2;
    AdmissionController ctrl(cfg);

    Expected<AdmissionController::InflightGuard> a = ctrl.tryEnter();
    Expected<AdmissionController::InflightGuard> b = ctrl.tryEnter();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(ctrl.inflight(), 2u);

    Expected<AdmissionController::InflightGuard> c = ctrl.tryEnter();
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().code(), ErrorCode::Overloaded);
    EXPECT_EQ(ctrl.inflight(), 2u);

    a.value().release();
    EXPECT_EQ(ctrl.inflight(), 1u);
    Expected<AdmissionController::InflightGuard> d = ctrl.tryEnter();
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(ctrl.inflightPeak(), 2u);
}

// With no cap there is nothing to enforce, so the gate keeps no
// count: every entry succeeds with an empty guard, and inflight()
// and inflightPeak() read 0 throughout.
void
expectGateKeepsNoCount(const AdmissionConfig &cfg)
{
    AdmissionController ctrl(cfg);
    std::vector<AdmissionController::InflightGuard> guards;
    for (int i = 0; i < 100; ++i) {
        Expected<AdmissionController::InflightGuard> g =
            ctrl.tryEnter();
        ASSERT_TRUE(g.ok());
        EXPECT_FALSE(g.value().held());
        guards.push_back(std::move(g.value()));
    }
    EXPECT_EQ(ctrl.inflight(), 0u);
    EXPECT_EQ(ctrl.inflightPeak(), 0u);
    guards.clear();
    EXPECT_EQ(ctrl.inflight(), 0u);
}

TEST(InflightGate, UncappedNeverFails)
{
    expectGateKeepsNoCount(floodConfig()); // max_inflight = 0
}

TEST(InflightGate, DisabledIgnoresItsCapAndKeepsNoCount)
{
    AdmissionConfig cfg; // enabled = false
    cfg.max_inflight = 2;
    expectGateKeepsNoCount(cfg);
}

// Four clients drive request() at once, first uncapped and then
// with a cap of 2. Only the capped service keeps an in-flight
// count, and it never passes the cap. Sheds off the cap depend on
// the schedule; conservation and serializability hold either way.
TEST(InflightGate, ConcurrentClientsUncappedAndCapped)
{
    constexpr unsigned kClients = 4;
    constexpr unsigned kOps = 20000;
    for (std::uint32_t cap : {0u, 2u}) {
        SvcConfig cfg;
        cfg.record_history = true;
        cfg.history_capacity = kOps;
        cfg.admission = floodConfig();
        cfg.admission.refill_num = 1; // 1/1: the quota never sheds
        cfg.admission.refill_den = 1;
        cfg.admission.max_inflight = cap;
        auto service = makeService(cfg);
        std::vector<Session *> sessions;
        for (unsigned t = 0; t < kClients; ++t)
            sessions.push_back(openSession(*service));
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kClients; ++t) {
            clients.emplace_back([s = sessions[t], t]() {
                Pcg32 rng(11, t);
                for (unsigned i = 0; i < kOps; ++i) {
                    OpKind kind = rng.chance(0.5) ? OpKind::Probe
                                                  : OpKind::Access;
                    bool is_write = rng.chance(0.3);
                    s->request(kind, rng.below(256), is_write);
                }
            });
        }
        for (std::thread &c : clients)
            c.join();

        const AdmissionController &gate = service->admission();
        EXPECT_EQ(gate.inflight(), 0u);
        if (cap == 0) {
            EXPECT_EQ(gate.inflightPeak(), 0u);
        } else {
            EXPECT_GE(gate.inflightPeak(), 1u);
            EXPECT_LE(gate.inflightPeak(), cap);
        }
        AdmissionStats total = service->totalStats().admission;
        EXPECT_EQ(total.admitted, kClients * kOps);
        if (cap == 0) {
            EXPECT_EQ(total.completed, kClients * kOps);
        }

        check::ViolationLog log;
        check::checkAdmissionConservation(total, "all clients", log);
        bool overflowed = false;
        std::vector<svc::HistoryEvent> events =
            service->collectHistory(&overflowed);
        EXPECT_FALSE(overflowed);
        EXPECT_EQ(events.size(), total.completed);
        check::checkSvcHistory(service->geom(), cfg.engine.policy,
                               service->engine().stripes(), events,
                               &service->engine().cache(), log);
        EXPECT_TRUE(log.ok()) << "cap " << cap << ": "
                              << (log.count() ? log.messages().front()
                                              : "");
    }
}

TEST(RequestPath, DisabledAdmissionStillAccountsConservation)
{
    auto service = makeService();
    Session *s = openSession(*service);
    for (int i = 0; i < 50; ++i) {
        Expected<svc::OpResult> r =
            s->request(OpKind::Access, i % 8, i % 3 == 0);
        EXPECT_TRUE(r.ok());
    }
    const AdmissionStats &a = s->stats().admission;
    EXPECT_EQ(a.admitted, 50u);
    EXPECT_EQ(a.completed, 50u);
    EXPECT_EQ(a.shed(), 0u);
    EXPECT_TRUE(a.conservationHolds());
}

TEST(RequestPath, FloodShedsDeterministically)
{
    SvcConfig cfg;
    cfg.admission = floodConfig();
    AdmissionStats runs[2];
    for (AdmissionStats &out : runs) {
        auto service = makeService(cfg);
        Session *s = openSession(*service, "noisy");
        for (int i = 0; i < 500; ++i) {
            Expected<svc::OpResult> r =
                s->request(OpKind::Access, i % 16, false);
            if (!r.ok()) {
                EXPECT_EQ(r.error().code(),
                          ErrorCode::Overloaded);
            }
        }
        out = s->stats().admission;
        EXPECT_TRUE(out.conservationHolds());
        EXPECT_GT(out.shed_quota, 0u);
    }
    EXPECT_TRUE(identicalStats(runs[0], runs[1]));
    EXPECT_EQ(runs[0].shed_quota, runs[1].shed_quota);
}

TEST(RequestPath, DegradedReadIsARelaxedProbeWithNoFill)
{
    SvcConfig cfg;
    cfg.admission = floodConfig(ShedPolicy::DegradeReads);
    auto service = makeService(cfg);
    Session *s = openSession(*service);

    s->drainQuota(); // the mid-stream budget squeeze, by hand
    Expected<svc::OpResult> r =
        s->request(OpKind::Access, 0x42, false);
    ASSERT_TRUE(r.ok()); // served, but degraded
    EXPECT_EQ(s->stats().admission.degraded, 1u);
    EXPECT_EQ(s->stats().admission.completed, 1u);

    // The degraded access ran as a probe: no fill happened, so the
    // block is still absent.
    EXPECT_FALSE(service->engine().probe(s->saltedBlock(0x42)).hit);
    EXPECT_TRUE(s->stats().admission.conservationHolds());
}

TEST(RequestPath, ExpiredDeadlineFailsBeforeTouchingTheQuota)
{
    SvcConfig cfg;
    cfg.admission = floodConfig();
    auto service = makeService(cfg);
    Session *s = openSession(*service);
    std::uint64_t tokens_before = s->quotaTokens();

    Expected<svc::OpResult> r = s->request(
        OpKind::Access, 0x1, false, Deadline::after(0));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Timeout);
    EXPECT_EQ(s->stats().admission.failed_timeout, 1u);
    // A stormed request never ticks the bucket — that is what keeps
    // the deadline-storm fault's shed counts deterministic.
    EXPECT_EQ(s->quotaTokens(), tokens_before);
    EXPECT_TRUE(s->stats().admission.conservationHolds());
}

TEST(RequestPath, BoundTokenDeadlineReportsTimeout)
{
    auto service = makeService();
    Session *s = openSession(*service);
    CancelToken token;
    token.cancelTimeout();
    s->bindCancel(&token);
    Expected<svc::OpResult> r =
        s->request(OpKind::Probe, 0x1, false);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Timeout);
    EXPECT_EQ(s->stats().admission.failed_timeout, 1u);
    EXPECT_TRUE(s->stats().admission.conservationHolds());
}

TEST(RequestPath, QuotaTokensDrainAndRefill)
{
    SvcConfig cfg;
    cfg.admission = floodConfig();
    auto service = makeService(cfg);
    Session *s = openSession(*service);
    EXPECT_GE(s->quotaTokens(), cfg.admission.quota_burst / 2);
    s->drainQuota();
    EXPECT_EQ(s->quotaTokens(), 0u);
    // Two ticks at refill 1/2 accumulate one whole token; the
    // second tick spends it.
    EXPECT_FALSE(s->request(OpKind::Probe, 0x1, false).ok());
    EXPECT_TRUE(s->request(OpKind::Probe, 0x1, false).ok());
}

// The cancellation-mid-operation contract: a token tripped while a
// request is inside a striped-lock critical section (delivered via
// the engine's lock_hold_hook, i.e. while the lock is actually
// held) must not tear that operation — it completes and its update
// survives — and every *subsequent* request fails with the token's
// structured error, taken between critical sections with no lock
// held and the serializability of the whole history intact.
TEST(RequestPath, CancelDeliveredMidOperationIsClean)
{
    CancelToken token;
    SvcConfig cfg;
    cfg.record_history = true;
    cfg.admission = floodConfig();
    cfg.admission.quota_burst = 64; // ample: no quota sheds here
    cfg.admission.refill_num = 1;
    cfg.admission.refill_den = 1;
    cfg.engine.lock_hold_hook = [&token](std::uint32_t) {
        token.cancel(); // tripped while the stripe lock is held
    };
    mem::CacheGeometry geom(1024, 16, 2);
    auto service = makeService(cfg, geom);
    Session *s = openSession(*service, "victim");
    s->bindCancel(&token);

    // The in-flight op: the hook cancels the token while this
    // request holds its stripe lock. The op itself must still
    // complete (no torn critical section, no lost update).
    Expected<svc::OpResult> first =
        s->request(OpKind::Access, 0x9, true);
    ASSERT_TRUE(first.ok());

    // Every subsequent request observes the trip between critical
    // sections and fails with the token's structured error.
    Expected<svc::OpResult> second =
        s->request(OpKind::Access, 0x9, true);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code(), ErrorCode::Cancelled);

    // No lock is left held: another tenant (not bound to the
    // token) still gets straight through the same set.
    Session *bystander = openSession(*service, "bystander");
    EXPECT_TRUE(
        bystander->request(OpKind::Probe, 0x9, false).ok());

    // The first op's update was not lost.
    EXPECT_TRUE(service->engine().probe(s->saltedBlock(0x9)).hit);

    // Accounting: one completed, one cancelled, conserved.
    const AdmissionStats &a = s->stats().admission;
    EXPECT_EQ(a.completed, 1u);
    EXPECT_EQ(a.failed_cancelled, 1u);
    EXPECT_TRUE(a.conservationHolds());

    // And the recorded history still replays serializably.
    check::ViolationLog log;
    bool overflowed = false;
    std::vector<svc::HistoryEvent> events =
        service->collectHistory(&overflowed);
    EXPECT_FALSE(overflowed);
    check::checkSvcHistory(service->geom(), cfg.engine.policy,
                           service->engine().stripes(), events,
                           &service->engine().cache(), log);
    EXPECT_TRUE(log.ok()) << (log.count()
                                  ? log.messages().front()
                                  : "");
    check::checkAdmissionConservation(a, "victim", log);
    EXPECT_TRUE(log.ok());
}

TEST(RequestPath, InflightShedKeepsConservation)
{
    SvcConfig cfg;
    cfg.admission = floodConfig();
    cfg.admission.max_inflight = 1;
    auto service = makeService(cfg);
    Session *s = openSession(*service);

    // Hold the only slot so the session's request bounces off the
    // cap (single-threaded stand-in for a busy service).
    Expected<AdmissionController::InflightGuard> held =
        service->admission().tryEnter();
    ASSERT_TRUE(held.ok());
    Expected<svc::OpResult> r =
        s->request(OpKind::Probe, 0x1, false);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Overloaded);
    EXPECT_EQ(s->stats().admission.shed_inflight, 1u);
    EXPECT_TRUE(s->stats().admission.conservationHolds());

    held.value().release();
    EXPECT_TRUE(s->request(OpKind::Probe, 0x1, false).ok());
}

TEST(AdmissionStatsMerge, MergesExactlyAndConserves)
{
    AdmissionStats a, b;
    a.admitted = 10;
    a.completed = 6;
    a.shed_quota = 3;
    a.failed_timeout = 1;
    b.admitted = 4;
    b.completed = 2;
    b.shed_writes = 1;
    b.failed_cancelled = 1;
    ASSERT_TRUE(a.conservationHolds());
    ASSERT_TRUE(b.conservationHolds());
    mergeStats(a, b);
    EXPECT_EQ(a.admitted, 14u);
    EXPECT_EQ(a.completed, 8u);
    EXPECT_TRUE(a.conservationHolds());
}

} // namespace
