/**
 * @file
 * Multi-threaded throughput driver for the concurrent cache
 * service (src/svc).
 *
 * For each requested thread count the driver builds a fresh
 * CacheService, opens one session per client thread, pre-generates
 * per-thread uniform-random op streams (a --probe-frac slice of
 * read-only probes that exercise the seqlock fast path, the rest
 * access ops with a --write-frac dirty share), replays them
 * concurrently and reports ops/sec, speedup over the single-thread
 * row, hit rate and seqlock behavior (optimistic share, retries,
 * locked fallbacks).
 *
 *   svc_bench --threads=1,2,4,8 --ops=200000
 *   svc_bench --threads=1,4 --verify          # + history replay
 *   svc_bench --stripes=1                     # one global lock
 *   svc_bench --require-scaling --min-speedup=3
 *
 * With admission control enabled (--quota-rate / --quota-burst /
 * --max-inflight / --shed-policy) clients go through the full
 * overload path — Session::request() with per-request --deadline
 * propagation — and retry shed requests with seeded-jitter
 * exponential backoff (util/backoff.h, --retry-attempts). The
 * admission summary line prints the deterministic shed counters
 * (bit-identical across same-seed reruns when retries are driven
 * only by quota verdicts, i.e. --max-inflight=0):
 *
 *   svc_bench --quota-rate=1/2 --quota-burst=16 --flood-tenant=8
 *   svc_bench --quota-rate=1/3 --shed-policy=degrade-reads \
 *             --deadline=50ms --fail-overloaded
 *   svc_bench --chaos --chaos-cases=250        # chaos campaign
 *
 * --flood-tenant=K multiplies tenant 0's stream by K (the noisy
 * neighbor); --fail-overloaded turns any shed into exit code 5 for
 * scripted overload probes. --chaos runs the seeded service chaos
 * campaign (check/svc_chaos.h: lock-holder stall, tenant flood,
 * budget squeeze, deadline storm; every case executed twice and
 * diffed) instead of the throughput bench.
 *
 * --verify records per-session histories and replays them through
 * the serializability checker after each run (see docs/SERVICE.md);
 * violations exit 1. --require-scaling turns the speedup of the
 * largest thread count into a gate: it needs real cores, so it is
 * opt-in rather than part of the default run (CI machines with one
 * core would fail spuriously).
 *
 * --csv=PATH writes the table as CSV — atomically (temp + fsync +
 * rename), so a killed run never leaves a torn file; PATH "-"
 * streams CSV to stdout.
 *
 * Exit codes: 0 ok, 1 usage / failed verification or scaling gate /
 * failed chaos campaign, 4 budget exceeded, 5 overloaded
 * (--fail-overloaded with sheds observed), 130/143 interrupted.
 */

#include <chrono>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "check/svc_chaos.h"
#include "check/svc_check.h"
#include "svc/service.h"
#include "util/argparse.h"
#include "util/atomic_file.h"
#include "util/backoff.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace assoc;

mem::ReplPolicy
policyFromString(const std::string &s)
{
    if (s == "lru")
        return mem::ReplPolicy::Lru;
    if (s == "fifo")
        return mem::ReplPolicy::Fifo;
    if (s == "tree-plru")
        return mem::ReplPolicy::TreePlru;
    fatal("unknown --policy '" + s +
          "' (expected lru|fifo|tree-plru)");
}

std::vector<unsigned>
parseThreadList(const std::string &s)
{
    std::vector<unsigned> out;
    std::string cur;
    for (char ch : s + ",") {
        if (ch == ',') {
            if (cur.empty())
                continue;
            int v = std::stoi(cur);
            fatalIf(v < 1 || v > 256,
                    "--threads entries must be in 1..256");
            out.push_back(static_cast<unsigned>(v));
            cur.clear();
        } else {
            fatalIf(ch < '0' || ch > '9',
                    "--threads expects a comma-separated list "
                    "of counts, e.g. 1,2,4,8");
            cur.push_back(ch);
        }
    }
    fatalIf(out.empty(), "--threads list is empty");
    return out;
}

/** Parse --quota-rate "N/D" (tokens per request tick). */
void
parseQuotaRate(const std::string &s, std::uint64_t &num,
               std::uint64_t &den)
{
    std::size_t slash = s.find('/');
    fatalIf(slash == std::string::npos || slash == 0 ||
                slash + 1 >= s.size(),
            "--quota-rate expects N/D, e.g. 1/2");
    try {
        num = std::stoull(s.substr(0, slash));
        den = std::stoull(s.substr(slash + 1));
    } catch (const std::exception &) {
        fatal("--quota-rate expects N/D, e.g. 1/2");
    }
    fatalIf(den == 0, "--quota-rate denominator must be positive");
}

/** One thread's pre-generated ops (generation excluded from the
 *  timed region). */
std::vector<check::SvcOpSpec>
makeStream(std::uint64_t seed, unsigned thread, std::uint64_t ops,
           std::uint32_t block_space, double probe_frac,
           double write_frac)
{
    Pcg32 rng(seed, 0xbe7c + thread);
    std::vector<check::SvcOpSpec> stream;
    stream.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) {
        check::SvcOpSpec op;
        if (rng.uniform() < probe_frac) {
            op.kind = svc::OpKind::Probe;
        } else {
            op.kind = svc::OpKind::Access;
            op.is_write = rng.chance(write_frac);
        }
        op.block = rng.below(block_space);
        stream.push_back(op);
    }
    return stream;
}

struct RunRow
{
    unsigned threads = 0;
    std::uint64_t ops = 0;
    double seconds = 0.0;
    double ops_per_sec = 0.0;
    svc::TenantStats stats;
    bool verified_ok = true;
    std::uint64_t violations = 0;
    std::uint64_t client_retries = 0;  ///< backoff re-attempts
    std::uint64_t client_gave_up = 0;  ///< ops shed to exhaustion
};

int
runChaos(const ArgParser &args)
{
    check::SvcChaosOptions opt;
    opt.seed = args.getUint("seed");
    opt.iterations = args.getUint("chaos-cases");
    opt.max_failures = 3;
    opt.log = &std::cerr;
    check::SvcChaosSummary sum = check::runSvcChaos(opt);
    std::cout << "svc_bench chaos: " << sum.cases_run << " cases x2, "
              << sum.ops << " requests, " << sum.totals.shed()
              << " shed (" << sum.totals.shed_quota << " quota, "
              << sum.totals.shed_writes << " writes, "
              << sum.totals.shed_inflight << " inflight), "
              << sum.totals.degraded << " degraded, "
              << sum.totals.failed() << " failed, "
              << sum.failures.size() << " failing case(s)\n";
    return sum.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("svc_bench",
                   "multi-threaded throughput driver for the "
                   "concurrent cache service");
    args.addFlag("size", "65536", "cache size in bytes");
    args.addFlag("block", "32", "block size in bytes");
    args.addFlag("assoc", "8", "associativity");
    args.addFlag("policy", "lru",
                 "replacement policy: lru|fifo|tree-plru");
    args.addFlag("stripes", "0",
                 "lock-stripe cap (power of two; 0 = one per set)");
    args.addFlag("retries", "8",
                 "optimistic probe attempts before locking");
    args.addFlag("threads", "1,2,4,8",
                 "comma-separated client thread counts");
    args.addFlag("ops", "200000", "operations per thread");
    args.addFlag("working-set", "0",
                 "distinct blocks drawn (0 = 4x cache capacity)");
    args.addFlag("probe-frac", "0.6",
                 "fraction of ops that are read-only probes");
    args.addFlag("write-frac", "0.3",
                 "dirty fraction of the access ops");
    args.addFlag("seed", "1", "op-stream seed");
    args.addFlag("mem-budget", "",
                 "byte cap (e.g. 64M) charged for cache planes, "
                 "lock stripes and session shards");
    args.addSwitch("verify",
                   "record histories and replay them through the "
                   "serializability checker after each run");
    args.addSwitch("require-scaling",
                   "fail unless the largest thread count reaches "
                   "--min-speedup over one thread (needs real "
                   "cores)");
    args.addFlag("min-speedup", "3.0",
                 "speedup gate for --require-scaling");
    args.addFlag("csv", "",
                 "write the table as CSV to this path (atomic "
                 "temp+fsync+rename; \"-\" = stdout)");
    // --- overload / admission ------------------------------------
    args.addFlag("quota-rate", "",
                 "enable admission control: tokens refilled per "
                 "request tick, as N/D (e.g. 1/2)");
    args.addFlag("quota-burst", "64",
                 "token-bucket capacity in requests");
    args.addFlag("max-inflight", "0",
                 "global concurrent-request cap (0 = none; "
                 "schedule-dependent sheds)");
    args.addFlag("shed-policy", "reject-new",
                 "over-quota disposition: reject-new|"
                 "drop-writes-first|degrade-reads");
    args.addFlag("deadline", "",
                 "per-request deadline (e.g. 50ms; propagated "
                 "through Session::request)");
    args.addFlag("retry-attempts", "3",
                 "backoff client: attempts per op before giving "
                 "up (1 = no retry)");
    args.addFlag("flood-tenant", "1",
                 "multiply tenant 0's stream by this factor (the "
                 "noisy neighbor)");
    args.addSwitch("fail-overloaded",
                   "exit 5 when any request was shed (scripted "
                   "overload probes)");
    args.addSwitch("chaos",
                   "run the service chaos campaign (stall / flood "
                   "/ squeeze / storm; cases run twice and diffed) "
                   "instead of the bench");
    args.addFlag("chaos-cases", "200", "chaos campaign case count");
    if (!args.parse(argc, argv))
        return 0;

    return guardedMain("svc_bench", [&]() -> int {
        if (args.getBool("chaos"))
            return runChaos(args);

        mem::CacheGeometry geom(args.getUint32("size"),
                                args.getUint32("block"),
                                args.getUint32("assoc"));

        svc::SvcConfig cfg;
        cfg.engine.policy =
            policyFromString(args.getString("policy"));
        cfg.engine.max_stripes = args.getUint32("stripes");
        cfg.engine.optimistic_retries = args.getUint32("retries");

        std::vector<unsigned> thread_counts =
            parseThreadList(args.getString("threads"));
        std::uint64_t ops = args.getUint("ops");
        fatalIf(ops == 0, "--ops must be positive");
        std::uint64_t seed = args.getUint("seed");
        double probe_frac = args.getDouble("probe-frac");
        double write_frac = args.getDouble("write-frac");
        fatalIf(probe_frac < 0.0 || probe_frac > 1.0 ||
                    write_frac < 0.0 || write_frac > 1.0,
                "--probe-frac/--write-frac must be in [0, 1]");

        std::uint32_t capacity = geom.sets() * geom.assoc();
        std::uint32_t working_set = args.getUint32("working-set");
        if (working_set == 0)
            working_set = capacity * 4;

        const bool admission = args.given("quota-rate");
        if (admission) {
            cfg.admission.enabled = true;
            parseQuotaRate(args.getString("quota-rate"),
                           cfg.admission.refill_num,
                           cfg.admission.refill_den);
            cfg.admission.quota_burst = args.getUint("quota-burst");
            // The bucket holds burst * D fixed-point tokens plus one
            // tick's N; past 64 bits it wraps and sheds everything.
            if (cfg.admission.quota_burst >
                (std::numeric_limits<std::uint64_t>::max() -
                 cfg.admission.refill_num) /
                    cfg.admission.refill_den)
                throwError(Error::usage(
                    "--quota-burst=" +
                    std::to_string(cfg.admission.quota_burst) +
                    " times the --quota-rate denominator overflows "
                    "64 bits"));
            cfg.admission.max_inflight =
                args.getUint32("max-inflight");
            Expected<svc::ShedPolicy> pol =
                svc::shedPolicyFromString(
                    args.getString("shed-policy"));
            if (!pol.ok())
                throwError(Error(pol.error())
                               .withContext("--shed-policy"));
            cfg.admission.policy = pol.value();
            cfg.admission.seed = seed;
        }
        std::uint64_t deadline_ns = 0;
        if (args.given("deadline")) {
            Expected<std::uint64_t> ns =
                parseDuration(args.getString("deadline"));
            if (!ns.ok())
                throwError(Error(ns.error())
                               .withContext("--deadline"));
            deadline_ns = ns.value();
        }
        unsigned retry_attempts = args.getUint32("retry-attempts");
        if (retry_attempts == 0)
            retry_attempts = 1;
        std::uint64_t flood = args.getUint("flood-tenant");
        if (flood == 0)
            flood = 1;

        std::unique_ptr<MemBudget> budget;
        if (args.given("mem-budget")) {
            Expected<std::uint64_t> bytes =
                parseByteSize(args.getString("mem-budget"));
            if (!bytes.ok())
                throwError(Error(bytes.error())
                               .withContext("--mem-budget"));
            budget = std::make_unique<MemBudget>(bytes.value());
        }
        MemBudget *budget_ptr = budget.get();

        bool verify = args.getBool("verify");
        cfg.record_history = verify;
        cfg.history_capacity = static_cast<std::size_t>(ops * flood);

        // ^C / SIGTERM land here; request() reports them as the
        // token's structured error and guardedMain exits 128+sig.
        installSigintHandler();
        CancelToken root;
        root.watchSigint();

        std::vector<RunRow> rows;
        for (unsigned n : thread_counts) {
            Expected<std::unique_ptr<svc::CacheService>> svcE =
                svc::CacheService::create(geom, cfg, budget_ptr);
            if (!svcE.ok())
                throwError(svcE.error());
            std::unique_ptr<svc::CacheService> service =
                svcE.take();

            std::vector<svc::Session *> sessions;
            std::vector<std::vector<check::SvcOpSpec>> streams;
            for (unsigned t = 0; t < n; ++t) {
                Expected<svc::Session *> s =
                    service->openSession();
                if (!s.ok())
                    throwError(s.error());
                s.value()->bindCancel(&root);
                sessions.push_back(s.take());
                std::uint64_t len =
                    t == 0 ? ops * flood : ops;
                streams.push_back(makeStream(seed, t, len,
                                             working_set,
                                             probe_frac,
                                             write_frac));
            }

            std::vector<std::uint64_t> retries(n, 0);
            std::vector<std::uint64_t> gave_up(n, 0);
            auto t0 = std::chrono::steady_clock::now();
            std::vector<std::thread> workers;
            for (unsigned t = 0; t < n; ++t) {
                workers.emplace_back([&, t]() {
                    svc::Session *session = sessions[t];
                    if (!admission) {
                        // Raw engine path: no admission layer.
                        for (const check::SvcOpSpec &op :
                             streams[t]) {
                            if (root.signalled())
                                return;
                            session->apply(op.kind, op.block,
                                           op.is_write);
                        }
                        return;
                    }
                    // The polite overload client: every op goes
                    // through the full request() path and retries
                    // sheds with seeded-jitter backoff.
                    BackoffPolicy policy;
                    policy.initial_ns = 10 * 1000;        // 10us
                    policy.max_ns = 1000 * 1000;          // 1ms
                    policy.seed = seed ^ (0x5eedull << 8) ^ t;
                    for (const check::SvcOpSpec &op : streams[t]) {
                        RetryOutcome r = retryOverloaded(
                            [&]() -> Error {
                                Deadline dl =
                                    deadline_ns
                                        ? Deadline::after(
                                              deadline_ns)
                                        : Deadline::never();
                                Expected<svc::OpResult> res =
                                    session->request(op.kind,
                                                     op.block,
                                                     op.is_write,
                                                     dl);
                                return res.ok() ? Error()
                                                : res.error();
                            },
                            policy, retry_attempts, &root);
                        if (r.attempts > 1)
                            retries[t] += r.attempts - 1;
                        if (!r.error.ok()) {
                            if (r.error.code() ==
                                ErrorCode::Cancelled)
                                return;
                            ++gave_up[t];
                        }
                    }
                });
            }
            for (std::thread &w : workers)
                w.join();
            auto t1 = std::chrono::steady_clock::now();

            // A delivered signal unwinds with the shell-convention
            // exit code (130 / 143) via guardedMain.
            {
                Expected<void> alive = root.checkpoint();
                if (!alive.ok())
                    throwError(Error(alive.error())
                                   .withContext("svc_bench run"));
            }

            RunRow row;
            row.threads = n;
            row.ops = ops * (n - 1) + ops * flood;
            row.seconds =
                std::chrono::duration<double>(t1 - t0).count();
            row.ops_per_sec = row.seconds > 0.0
                                  ? row.ops / row.seconds
                                  : 0.0;
            row.stats = service->totalStats();
            for (unsigned t = 0; t < n; ++t) {
                row.client_retries += retries[t];
                row.client_gave_up += gave_up[t];
            }

            if (verify) {
                check::ViolationLog log;
                bool overflowed = false;
                std::vector<svc::HistoryEvent> events =
                    service->collectHistory(&overflowed);
                if (overflowed)
                    log.add("history overflowed");
                check::checkSvcHistory(
                    geom, cfg.engine.policy,
                    service->engine().stripes(), events,
                    &service->engine().cache(), log);
                check::checkAdmissionConservation(
                    row.stats.admission, "svc_bench totals", log);
                row.verified_ok = log.ok();
                row.violations = log.count();
                for (const std::string &m : log.messages())
                    std::cerr << "svc_bench: violation (threads="
                              << n << "): " << m << "\n";
            }
            rows.push_back(row);
        }

        TextTable table;
        std::vector<std::string> header = {
            "threads", "ops",      "seconds", "Mops/s",
            "speedup", "hit%",     "opt%",    "retries/probe",
        };
        if (admission) {
            header.push_back("shed%");
            header.push_back("degraded");
            header.push_back("client-retries");
        }
        if (verify)
            header.push_back("verified");
        table.setHeader(header);

        double base_ops_per_sec = 0.0;
        for (const RunRow &row : rows)
            if (row.threads == 1) {
                base_ops_per_sec = row.ops_per_sec;
                break;
            }

        for (const RunRow &row : rows) {
            const svc::TenantStats &st = row.stats;
            double hit_pct =
                st.ops ? 100.0 * st.hits() / st.ops : 0.0;
            double opt_pct =
                st.probe_ops
                    ? 100.0 * st.optimistic_reads / st.probe_ops
                    : 0.0;
            double retries_per_probe =
                st.probe_ops ? static_cast<double>(
                                   st.seqlock_retries) /
                                   st.probe_ops
                             : 0.0;
            std::vector<std::string> cells = {
                TextTable::num(std::uint64_t(row.threads)),
                TextTable::num(row.ops),
                TextTable::num(row.seconds, 3),
                TextTable::num(row.ops_per_sec / 1e6, 2),
                base_ops_per_sec > 0.0
                    ? TextTable::num(
                          row.ops_per_sec / base_ops_per_sec, 2)
                    : "-",
                TextTable::num(hit_pct, 1),
                TextTable::num(opt_pct, 1),
                TextTable::num(retries_per_probe, 4),
            };
            if (admission) {
                const svc::AdmissionStats &a = st.admission;
                double shed_pct =
                    a.admitted
                        ? 100.0 * a.shed() / a.admitted
                        : 0.0;
                cells.push_back(TextTable::num(shed_pct, 1));
                cells.push_back(TextTable::num(a.degraded));
                cells.push_back(
                    TextTable::num(row.client_retries));
            }
            if (verify)
                cells.push_back(row.verified_ok ? "ok"
                                                : "FAIL");
            table.addRow(cells);
        }

        std::string csv_path = args.getString("csv");
        if (csv_path.empty()) {
            table.print(std::cout, TextTable::Format::Text);
        } else if (csv_path == "-") {
            table.print(std::cout, TextTable::Format::Csv);
        } else {
            Expected<void> wrote = writeFileAtomic(
                csv_path, [&](std::ostream &os) {
                    table.print(os, TextTable::Format::Csv);
                });
            if (!wrote.ok())
                throwError(
                    Error(wrote.error()).withContext("--csv"));
        }

        std::uint64_t total_shed = 0;
        if (admission) {
            // The deterministic counters first (bit-identical
            // across same-seed reruns with --max-inflight=0), then
            // the schedule-dependent ones.
            for (const RunRow &row : rows) {
                const svc::AdmissionStats &a =
                    row.stats.admission;
                total_shed += a.shed();
                std::cout << "admission threads="
                          << row.threads << " deterministic:"
                          << " admitted=" << a.admitted
                          << " shed_quota=" << a.shed_quota
                          << " shed_writes=" << a.shed_writes
                          << " degraded=" << a.degraded
                          << " | scheduled:"
                          << " shed_inflight=" << a.shed_inflight
                          << " failed_timeout=" << a.failed_timeout
                          << " failed_cancelled="
                          << a.failed_cancelled
                          << " completed=" << a.completed
                          << " gave_up=" << row.client_gave_up
                          << "\n";
            }
        }
        if (budget_ptr)
            std::cout << "peak budget: "
                      << formatBytes(budget_ptr->peak()) << " of "
                      << formatBytes(budget_ptr->limit()) << "\n";

        for (const RunRow &row : rows)
            if (!row.verified_ok) {
                std::cerr << "svc_bench: verification failed ("
                          << row.violations << " violations)\n";
                return 1;
            }

        if (args.getBool("require-scaling")) {
            const RunRow &last = rows.back();
            double speedup =
                base_ops_per_sec > 0.0
                    ? last.ops_per_sec / base_ops_per_sec
                    : 0.0;
            double want = args.getDouble("min-speedup");
            if (rows.size() < 2 || base_ops_per_sec == 0.0) {
                std::cerr << "svc_bench: --require-scaling needs "
                             "a thread list containing 1 and a "
                             "larger count\n";
                return 1;
            }
            if (speedup < want) {
                std::cerr << "svc_bench: scaling gate failed: "
                          << last.threads << " threads reached "
                          << TextTable::num(speedup, 2) << "x < "
                          << TextTable::num(want, 2) << "x\n";
                return 1;
            }
        }

        if (args.getBool("fail-overloaded") && total_shed > 0) {
            std::cerr << "svc_bench: " << total_shed
                      << " request(s) shed\n";
            throwError(Error::overloaded(
                std::to_string(total_shed) +
                " request(s) shed under --fail-overloaded"));
        }
        return 0;
    });
}
