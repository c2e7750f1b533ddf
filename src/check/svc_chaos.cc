#include "check/svc_chaos.h"

#include <exception>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/fnv.h"
#include "util/rng.h"

namespace assoc {
namespace check {

namespace {

/** The victim tenant's stream is longer under tenant-flood. */
std::uint64_t
streamLength(const SvcChaosCase &c, unsigned thread)
{
    if (c.fault.svc_fault == exec::SvcFaultKind::TenantFlood &&
        c.fault.svc_victim >= 0 &&
        thread == static_cast<unsigned>(c.fault.svc_victim))
        return c.ops_per_thread * c.fault.svc_flood_factor;
    return c.ops_per_thread;
}

/** Thread @p thread's deterministic request stream for case @p c. */
std::vector<SvcOpSpec>
chaosOpStream(const SvcChaosCase &c, unsigned thread)
{
    Pcg32 rng(c.case_seed, 0xc1a05 + thread);
    std::uint64_t n = streamLength(c, thread);
    std::vector<SvcOpSpec> ops;
    ops.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        SvcOpSpec op;
        std::uint32_t k = rng.below(100);
        if (k < 30)
            op.kind = svc::OpKind::Probe;
        else if (k < 50)
            op.kind = svc::OpKind::Lookup;
        else if (k < 65)
            op.kind = svc::OpKind::Fill;
        else if (k < 75)
            op.kind = svc::OpKind::Invalidate;
        else
            op.kind = svc::OpKind::Access;
        op.block = rng.below(c.block_space);
        op.is_write = rng.chance(0.3);
        ops.push_back(op);
    }
    return ops;
}

/** Digest the schedule-independent counters of one shard. */
void
digestAdmission(std::uint64_t &h, const svc::AdmissionStats &a,
                bool storm_deterministic)
{
    fnvMix(h, a.admitted);
    fnvMix(h, a.shed_quota);
    fnvMix(h, a.shed_writes);
    fnvMix(h, a.degraded);
    // Deadline-storm deadlines are pre-expired: the timeout verdict
    // never consults a clock, so it is deterministic there (only).
    if (storm_deterministic)
        fnvMix(h, a.failed_timeout);
}

} // namespace

std::string
SvcChaosCase::describe() const
{
    std::ostringstream os;
    os << "chaos " << geom.name() << " policy="
       << mem::replPolicyName(cfg.engine.policy)
       << " stripes=" << cfg.engine.max_stripes
       << " threads=" << threads << " ops=" << ops_per_thread
       << " blocks=" << block_space << " fault="
       << exec::svcFaultKindName(fault.svc_fault) << " victim="
       << fault.svc_victim << " at=" << fault.svc_at << " shed="
       << svc::shedPolicyName(cfg.admission.policy) << " burst="
       << cfg.admission.quota_burst << " refill="
       << cfg.admission.refill_num << "/" << cfg.admission.refill_den
       << " inflight=" << cfg.admission.max_inflight;
    return os.str();
}

SvcChaosCase
sampleSvcChaosCase(std::uint64_t seed, std::uint64_t index,
                   unsigned threads_override)
{
    SvcChaosCase c;
    Pcg32 rng(seed, 0xc4a05 + index);
    c.case_seed = rng.next64();

    // Small contended geometries, as in the svc fuzzer.
    static const std::uint32_t kSets[] = {4, 8, 16};
    static const std::uint32_t kAssoc[] = {2, 4, 8};
    std::uint32_t sets = kSets[rng.below(3)];
    std::uint32_t assoc = kAssoc[rng.below(3)];
    c.geom = mem::CacheGeometry(sets * assoc * 16, 16, assoc);

    static const mem::ReplPolicy kPolicies[] = {
        mem::ReplPolicy::Lru, mem::ReplPolicy::Fifo,
        mem::ReplPolicy::TreePlru};
    c.cfg.engine.policy = kPolicies[rng.below(3)];
    static const unsigned kStripes[] = {0, 1, 2};
    c.cfg.engine.max_stripes = kStripes[rng.below(3)];
    c.cfg.engine.optimistic_retries = rng.chance(0.5) ? 8 : 2;

    c.threads =
        threads_override != 0 ? threads_override : 2 + rng.below(3);
    c.ops_per_thread = 200 + rng.below(400);
    c.block_space = sets * assoc * (1 + rng.below(3));

    // Admission shape: tight enough that sheds actually happen.
    c.cfg.admission.enabled = true;
    c.cfg.admission.quota_burst = 4 + rng.below(29);
    static const std::uint64_t kRefill[][2] = {
        {1, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 4}};
    const std::uint64_t *refill = kRefill[rng.below(5)];
    c.cfg.admission.refill_num = refill[0];
    c.cfg.admission.refill_den = refill[1];
    c.cfg.admission.max_inflight =
        rng.chance(0.5) ? 0 : 1 + rng.below(c.threads);
    static const svc::ShedPolicy kShed[] = {
        svc::ShedPolicy::RejectNew, svc::ShedPolicy::DropWritesFirst,
        svc::ShedPolicy::DegradeReads};
    c.cfg.admission.policy = kShed[rng.below(3)];
    c.cfg.admission.seed = rng.next64();

    // One service fault per case, uniformly.
    static const exec::SvcFaultKind kFaults[] = {
        exec::SvcFaultKind::LockHolderStall,
        exec::SvcFaultKind::TenantFlood,
        exec::SvcFaultKind::BudgetSqueeze,
        exec::SvcFaultKind::DeadlineStorm};
    c.fault.seed = c.case_seed;
    c.fault.svc_fault = kFaults[rng.below(4)];
    c.fault.svc_victim = rng.below(c.threads);
    c.fault.svc_at = rng.below(static_cast<std::uint32_t>(
        c.ops_per_thread / 2 + 1));
    c.fault.svc_stall_every = 16 + rng.below(49);
    c.fault.svc_stall_spins = 1000 + rng.below(4000);
    c.fault.svc_flood_factor = 2 + rng.below(5);
    c.fault.svc_storm_span = 16 + rng.below(113);

    c.cfg.record_history = true;
    c.cfg.history_capacity = static_cast<std::size_t>(
        c.ops_per_thread * c.fault.svc_flood_factor);
    return c;
}

SvcChaosRun
runSvcChaosCase(const SvcChaosCase &c)
{
    SvcChaosRun out;
    out.determinism_digest = kFnvInit;
    fnvMix(out.determinism_digest, c.case_seed);
    const bool storm =
        c.fault.svc_fault == exec::SvcFaultKind::DeadlineStorm;
    const bool squeeze =
        c.fault.svc_fault == exec::SvcFaultKind::BudgetSqueeze;

    try {
        // The injector must outlive the engine its hook arms.
        exec::FaultInjector injector(c.fault);
        svc::SvcConfig cfg = c.cfg;
        cfg.engine.lock_hold_hook = injector.lockStallHook();

        Expected<std::unique_ptr<svc::CacheService>> svcE =
            svc::CacheService::create(c.geom, cfg, nullptr);
        if (!svcE.ok())
            throwError(svcE.error());
        std::unique_ptr<svc::CacheService> service = svcE.take();

        CancelToken root; // never trips; exercises the bound path
        std::vector<svc::Session *> sessions;
        for (unsigned t = 0; t < c.threads; ++t) {
            Expected<svc::Session *> s = service->openSession();
            if (!s.ok())
                throwError(s.error());
            s.value()->bindCancel(&root);
            sessions.push_back(s.take());
        }

        std::vector<std::string> thread_errors(c.threads);
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < c.threads; ++t) {
            workers.emplace_back([&, t]() {
                try {
                    const bool victim =
                        c.fault.svc_victim >= 0 &&
                        t == static_cast<unsigned>(
                                 c.fault.svc_victim);
                    std::vector<SvcOpSpec> ops = chaosOpStream(c, t);
                    for (std::size_t i = 0; i < ops.size(); ++i) {
                        if (squeeze && victim &&
                            i == c.fault.svc_at)
                            sessions[t]->drainQuota();
                        Deadline dl = Deadline::never();
                        if (storm && victim &&
                            i >= c.fault.svc_at &&
                            i < c.fault.svc_at +
                                    c.fault.svc_storm_span)
                            dl = Deadline::after(0);
                        Expected<svc::OpResult> r =
                            sessions[t]->request(ops[i].kind,
                                                 ops[i].block,
                                                 ops[i].is_write, dl);
                        if (r.ok())
                            continue;
                        ErrorCode code = r.error().code();
                        if (code != ErrorCode::Overloaded &&
                            code != ErrorCode::Timeout &&
                            code != ErrorCode::Cancelled &&
                            thread_errors[t].empty())
                            thread_errors[t] =
                                "unexpected error shape: " +
                                r.error().text();
                    }
                } catch (const std::exception &ex) {
                    thread_errors[t] = ex.what();
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        for (unsigned t = 0; t < c.threads; ++t) {
            out.ops += streamLength(c, t);
            if (!thread_errors[t].empty())
                out.log.add("worker " + std::to_string(t) +
                            ": " + thread_errors[t]);
        }

        // 1. Conservation, per shard and merged.
        for (unsigned t = 0; t < c.threads; ++t)
            checkAdmissionConservation(
                sessions[t]->stats().admission,
                "tenant " + std::to_string(t), out.log);
        out.totals = service->totalStats().admission;
        checkAdmissionConservation(out.totals, "merged totals",
                                   out.log);
        if (out.totals.admitted != out.ops)
            out.log.add("admitted " +
                        std::to_string(out.totals.admitted) +
                        " != requests issued " +
                        std::to_string(out.ops));

        // 2. Serializability of what executed, under shedding.
        bool overflowed = false;
        std::vector<svc::HistoryEvent> events =
            service->collectHistory(&overflowed);
        if (overflowed)
            out.log.add("history overflowed despite sized "
                        "per-session capacity");
        checkSvcHistory(c.geom, cfg.engine.policy,
                        service->engine().stripes(), events,
                        &service->engine().cache(), out.log);

        // 3. The determinism digest (compared across reruns by the
        // campaign driver).
        for (unsigned t = 0; t < c.threads; ++t)
            digestAdmission(out.determinism_digest,
                            sessions[t]->stats().admission, storm);
    } catch (const std::exception &ex) {
        out.log.add(std::string("case threw: ") + ex.what());
    }
    return out;
}

std::string
svcChaosReproCommand(std::uint64_t seed, std::uint64_t index)
{
    return "fuzz_diff --svc-chaos --seed=" + std::to_string(seed) +
           " --config=" + std::to_string(index);
}

SvcChaosSummary
runSvcChaos(const SvcChaosOptions &opt)
{
    SvcChaosSummary out;
    std::uint64_t h = kFnvInit;
    const std::uint64_t begin =
        opt.have_only_case ? opt.only_case : 0;
    const std::uint64_t end =
        opt.have_only_case ? opt.only_case + 1 : opt.iterations;

    for (std::uint64_t i = begin; i < end; ++i) {
        const SvcChaosCase c =
            sampleSvcChaosCase(opt.seed, i, opt.threads);
        SvcChaosRun first = runSvcChaosCase(c);
        SvcChaosRun second = runSvcChaosCase(c);
        ++out.cases_run;
        out.ops += first.ops + second.ops;
        out.totals.merge(first.totals);
        fnvMix(h, first.determinism_digest);

        ViolationLog &log = first.log;
        for (const std::string &m : second.log.messages())
            log.add("rerun: " + m);
        if (first.determinism_digest != second.determinism_digest) {
            std::ostringstream os;
            os << "determinism digest diverged across reruns: "
               << std::hex << first.determinism_digest << " vs "
               << second.determinism_digest
               << " (a shed counter depended on thread schedule)";
            log.add(os.str());
        }

        if (opt.log && !opt.have_only_case && (i + 1) % 200 == 0)
            *opt.log << "svc chaos: " << (i + 1) << "/"
                     << opt.iterations << " cases, " << out.ops
                     << " requests, " << out.totals.shed()
                     << " shed\n";

        if (log.ok())
            continue;

        SvcFuzzFailure f;
        f.index = i;
        f.case_seed = c.case_seed;
        f.description = c.describe();
        f.messages = log.messages();
        if (opt.log) {
            std::ostream &os = *opt.log;
            os << "FAIL chaos case " << i << ": " << f.description
               << "\n";
            for (const std::string &m : f.messages)
                os << "  violation: " << m << "\n";
            os << "  repro: " << svcChaosReproCommand(opt.seed, i)
               << "\n";
        }
        out.failures.push_back(std::move(f));
        if (out.failures.size() >= opt.max_failures)
            break;
    }
    out.digest = h;
    return out;
}

} // namespace check
} // namespace assoc
