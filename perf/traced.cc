/**
 * @file
 * The traced run: per-layer metrics, from timing calls into each
 * layer's public functions. It is a separate run from the timed
 * one, so its timers never perturb an end-to-end number.
 *
 * Within a layer stack the benchmark feeds one materialized trace
 * through more and more of it and takes successive differences:
 * replay only, + the two-level hierarchy, + one no-op observer (the
 * per-access set snapshot), + one probe meter at a time. After one
 * untimed warm-up, rounds run every stage in turn; each difference
 * is taken within a round and the metric is its median over rounds
 * (single passes gave negative differences). Simulation stages are
 * timed in process CPU time, so a prefetching reader's producer
 * thread is counted, not hidden.
 *
 * Every traced run measures both stacks, so every run reports every
 * per-layer metric. The workload picks the inputs: ftr_replay feeds
 * the simulation layers its corpus and trace_pack geometry, the
 * others the synthesized table4 trace and Figure 3's geometry;
 * svc_write drives the service layers with its mix, the others with
 * svc_read's.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "exec/sweep.h"
#include "perf.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"
#include "util/logging.h"

namespace assoc {
namespace perf {
namespace {

/** The associativities traced: both sweeps' a, so every traced run
 *  reports the same metric names. */
constexpr unsigned kAssocs[] = {2, 4, 8, 16};

/** One round's stage times, in nanoseconds. */
using Round = std::vector<double>;

/**
 * Time @p stages: one untimed warm-up of each, then @p passes rounds
 * that run every stage once, in turn. A shared host drifts between
 * speeds over seconds, so a layer's cost is a difference of stages
 * taken within one round, and a metric is the median of its
 * per-round values (perRound).
 */
std::vector<Round>
timeRounds(unsigned passes, const std::function<std::uint64_t()> &clock,
           const std::vector<std::function<void()>> &stages)
{
    for (const auto &body : stages)
        body();
    std::vector<Round> rounds(passes);
    for (Round &round : rounds)
        for (const auto &body : stages) {
            std::uint64_t t0 = clock();
            body();
            round.push_back(static_cast<double>(clock() - t0));
        }
    return rounds;
}

/** Median over @p rounds of @p f(round). */
double
perRound(const std::vector<Round> &rounds,
         const std::function<double(const Round &)> &f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(f(r));
    return median(std::move(v));
}

/** Median over @p rounds of stage @p s. */
double
column(const std::vector<Round> &rounds, std::size_t s)
{
    return perRound(rounds, [s](const Round &t) { return t[s]; });
}

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** An observer that does nothing: attaching it costs exactly the
 *  hierarchy's per-access set snapshot. */
class NoopObserver : public mem::L2Observer
{
  public:
    void observe(const mem::L2AccessView &) override {}
};

/** The simulation side of a traced run. */
struct SimFamily
{
    trace::AtumLikeConfig trace;
    mem::CacheGeometry l1{16384, 16, 1};
    std::uint32_t l2_bytes = 262144, l2_block = 32;
    bool from_file = false; ///< jobs stream the .ftr corpus
    std::vector<sim::RunSpec> sweep; ///< the workload's real sweep
    unsigned jobs = 1;

    sim::RunSpec
    spec(unsigned a) const
    {
        sim::RunSpec s;
        s.hier = {l1, mem::CacheGeometry(l2_bytes, l2_block, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        s.schemes = {naive, mru, core::SchemeSpec::paperPartial(a)};
        return s;
    }
};

SimFamily
simFamily(const RunContext &ctx)
{
    SimFamily f;
    if (ctx.workload == "ftr_replay") {
        f.trace = ftrTrace(ctx);
        f.l1 = mem::CacheGeometry(4096, 16, 1);
        f.l2_bytes = 65536;
        f.from_file = true;
        f.sweep = tracePackSpecs();
        f.jobs = ctx.cap(3);
    } else {
        f.trace = table4Trace(ctx);
        f.sweep = table4Specs();
        f.jobs = ctx.cap(4);
    }
    return f;
}

bool
sameStats(const mem::HierarchyStats &x, const mem::HierarchyStats &y)
{
    return x.proc_refs == y.proc_refs && x.l1_misses == y.l1_misses &&
           x.read_ins == y.read_ins && x.read_in_misses == y.read_in_misses &&
           x.write_backs == y.write_backs &&
           x.write_back_misses == y.write_back_misses;
}

void
traceSimLayers(const RunContext &ctx, RunResult &res)
{
    const SimFamily fam = simFamily(ctx);
    const unsigned P = ctx.sizes.passes;
    const std::string corpus = ctx.work("traced.ftr");

    // --- trace: synthesis and decode of the same stream -----------
    trace::AtumLikeGenerator gen(fam.trace);
    std::vector<trace::MemRef> refs;
    {
        trace::MemRef buf[64];
        while (std::size_t k = gen.nextBatch(buf, 64))
            refs.insert(refs.end(), buf, buf + k);
    }
    const double N = static_cast<double>(refs.size());
    trace::VectorTraceSource vec(refs);
    Expected<std::uint64_t> wrote = trace::writeFtr(vec, corpus);
    if (!wrote.ok())
        throwError(wrote.error());
    trace::FtrTraceSource ftr(corpus);
    const std::vector<Round> sources = timeRounds(
        P, processCpuNs, {[&] { drain(gen); }, [&] { drain(ftr); }});
    const double synth_ns = column(sources, 0) / N;
    const double decode_ns = column(sources, 1) / N;
    {
        ftr.reset();
        trace::MemRef r;
        std::size_t i = 0;
        bool same = true;
        while (ftr.next(r)) {
            same &= i < refs.size() && r.addr == refs[i].addr &&
                    r.type == refs[i].type && r.pid == refs[i].pid;
            ++i;
        }
        res.check(same && i == refs.size() && !ftr.failed() &&
                      ftr.skippedRecords() == 0,
                  "the corpus does not decode to the synthesized trace");
    }
    res.add("trace.synth_ns_per_ref", synth_ns, "ns/ref");
    res.add("trace.decode_ns_per_ref", decode_ns, "ns/ref");

    trace::TraceSource &source =
        fam.from_file ? static_cast<trace::TraceSource &>(ftr) : gen;
    // The jobs' own source: the generator, or the corpus as a sweep
    // job opens it.
    std::unique_ptr<trace::TraceSource> job_src;
    if (fam.from_file)
        job_src = trace::openTraceFile(corpus);
    else
        job_src = std::make_unique<trace::AtumLikeGenerator>(fam.trace);

    // --- mem, core, sim: successive stages per associativity ------
    const char *meter_names[] = {"naive", "mru", "partial"};
    bool first = true;
    for (unsigned a : kAssocs) {
        const sim::RunSpec spec = fam.spec(a);
        const std::string tag = ".a" + std::to_string(a);
        NoopObserver noop;
        mem::HierarchyStats hs;
        auto run = [&](mem::L2Observer *obs) {
            mem::TwoLevelHierarchy h(spec.hier);
            if (obs)
                h.addObserver(obs);
            h.run(vec, spec.batch_size);
            hs = h.stats();
        };
        auto metered = [&](int k) {
            return [&, k] {
                std::unique_ptr<core::ProbeMeter> m =
                    spec.schemes[k].makeMeter(spec.wb_optimization);
                run(m.get());
            };
        };
        sim::RunOutput out;
        // The sweep attaches a cancel token whenever it has a
        // cancellation source; runTrace then takes its checkpointed
        // one-reference-at-a-time loop.
        CancelToken token;
        sim::RunSpec guarded = spec;
        guarded.cancel = &token;
        guarded.checkpoint_every = exec::SweepOptions().checkpoint_every;
        // Stage order: source, replay, + hierarchy, + snapshot,
        // + each meter, the whole job, and at a = 4 the guarded job.
        std::vector<std::function<void()>> stages = {
            [&] { drain(source); },
            [&] { drain(vec); },
            [&] { run(nullptr); },
            [&] { run(&noop); },
            metered(0),
            metered(1),
            metered(2),
            [&] { out = sim::runTrace(*job_src, spec); }};
        if (a == 4)
            stages.push_back([&] {
                job_src->setCancelToken(&token);
                sim::runTrace(*job_src, guarded);
                job_src->setCancelToken(nullptr);
            });
        const std::vector<Round> rounds =
            timeRounds(P, processCpuNs, stages);
        res.check(sameStats(hs, out.stats),
                  "traced hierarchy and job disagree at a=" +
                      std::to_string(a));

        const double l2 = static_cast<double>(hs.read_ins + hs.write_backs);
        if (first) {
            res.add("mem.l1_miss_ratio", hs.l1MissRatio(), "ratio");
            res.add("mem.l2_per_ref", l2 / static_cast<double>(hs.proc_refs),
                    "ratio");
            first = false;
        }
        // Each layer is a difference of stages within one round.
        auto diff = [&](std::size_t hi, std::size_t lo) {
            return perRound(rounds,
                            [=](const Round &t) { return t[hi] - t[lo]; });
        };
        res.add("mem.hier_ns_per_ref" + tag, diff(2, 1) / N, "ns/ref");
        res.add("mem.snapshot_ns_per_l2" + tag, diff(3, 2) / l2, "ns/l2");
        res.add("mem.l2_local_miss_ratio" + tag, hs.localMissRatio(),
                "ratio");
        for (std::size_t k = 0; k < 3; ++k)
            res.add(std::string("core.meter_ns_per_l2.") + meter_names[k] +
                        tag,
                    diff(4 + k, 3) / l2, "ns/l2");
        res.add("sim.job_ns_per_ref" + tag, column(rounds, 7) / N,
                "ns/ref");
        // Source + hierarchy + snapshot + every meter, over the job.
        const double sum_ratio = perRound(rounds, [](const Round &t) {
            return (t[0] + t[3] - t[1] + t[4] + t[5] + t[6] - 3 * t[3]) /
                   t[7];
        });
        res.add("sim.layer_sum_ratio" + tag, sum_ratio, "ratio");
        // Not an output check: stages that share caches, or a host
        // that changed speed within a round, move it.
        if (sum_ratio < 0.85 || sum_ratio > 1.15)
            warn("sim.layer_sum_ratio" + tag + " = " +
                 std::to_string(sum_ratio) +
                 " is outside [0.85, 1.15]; the layers do not add up "
                 "to the job on this run");
        if (a == 4)
            res.add("exec.guard_overhead_ns_per_ref", diff(8, 7) / N,
                    "ns/ref");
    }

    // --- exec: the workload's real sweep, in-process --------------
    exec::SweepOptions opts;
    opts.jobs = fam.jobs;
    CancelToken token; // trace_pack sweep always attaches one
    if (fam.from_file)
        opts.cancel = &token;
    exec::TraceFactory factory = fam.from_file
                                     ? exec::fileTraceFactory(corpus)
                                     : exec::atumTraceFactory(fam.trace);
    Clock::time_point t0 = Clock::now();
    exec::SweepResult sweep = exec::runSweepChecked(fam.sweep, factory, opts);
    const double sweep_s = secondsBetween(t0, Clock::now());
    res.check(sweep.allOk(), "in-process sweep: a job failed");
    std::vector<double> walls;
    double busy = 0.0;
    for (const exec::JobResult &j : sweep.jobs) {
        ++res.attempted;
        res.failed += !j.ok();
        walls.push_back(static_cast<double>(j.wall_ns) * 1e-9);
        busy += walls.back();
    }
    const double workers = std::min<double>(fam.jobs, fam.sweep.size());
    res.add("exec.job_wall_s.p50", median(walls), "s");
    res.add("exec.job_wall_s.max", quantile(walls, 1.0), "s");
    res.add("exec.pool_busy_frac", busy / (workers * sweep_s), "ratio");

    // Peak memory of one real invocation.
    std::vector<std::string> argv;
    if (fam.from_file)
        argv = {tracePackPath(), "sweep", corpus,
                "--jobs=" + std::to_string(fam.jobs)};
    else
        argv = {benchTable4Path(),
                "--segments=" + std::to_string(ctx.sizes.table4_segments),
                "--seed=" + std::to_string(ctx.seed),
                "--jobs=" + std::to_string(fam.jobs)};
    const std::string rss_out = ctx.work("traced_rss.out");
    ChildRun rss = spawnChild(argv, rss_out);
    requireExit(rss, argv[0], rss_out);
    res.add("exec.peak_rss_mb", rss.maxrss_mb, "MB");
    res.jobs = fam.jobs;
}

/** Run every client of @p rig over its stream at once through
 *  @p op; @return wall nanoseconds. */
std::uint64_t
allClients(SvcRig &rig,
           const std::function<void(svc::Session &,
                                    const check::SvcOpSpec &)> &op)
{
    std::atomic<bool> go{false};
    std::uint64_t t0 = 0;
    {
        std::vector<std::jthread> threads;
        for (std::size_t t = 0; t < rig.sessions.size(); ++t)
            threads.emplace_back([&, t] {
                while (!go.load(std::memory_order_acquire)) {
                }
                for (const check::SvcOpSpec &o : rig.streams[t])
                    op(*rig.sessions[t], o);
            });
        t0 = wallNs();
        go.store(true, std::memory_order_release);
    }
    return wallNs() - t0;
}

void
traceSvcLayers(const RunContext &ctx, RunResult &res)
{
    const SvcMix mix = svcMix(ctx.workload == "svc_write");
    const unsigned P = ctx.sizes.passes;
    const std::uint64_t L = ctx.sizes.svc_stream;
    const double n = static_cast<double>(L);
    const unsigned clients = ctx.cap(4);
    res.clients = clients;

    // One client: the engine, the session wrapper, the request path.
    SvcRig one = makeSvcRig(ctx, mix, 1, L);
    const std::vector<check::SvcOpSpec> &ops = one.streams[0];
    svc::Session &s0 = *one.sessions[0];
    svc::ConcurrentCache &engine = one.service->engine();
    // All clients at once, on their own services so the request
    // stage's counts are its own: per-client time per op.
    SvcRig applied = makeSvcRig(ctx, mix, clients, L);
    SvcRig requested = makeSvcRig(ctx, mix, clients, L);
    const std::vector<Round> rounds = timeRounds(
        P, wallNs,
        {[&] {
             for (const check::SvcOpSpec &o : ops)
                 engine.apply(o.kind, o.block, o.is_write);
         },
         [&] {
             for (const check::SvcOpSpec &o : ops)
                 s0.apply(o.kind, o.block, o.is_write);
         },
         [&] {
             for (const check::SvcOpSpec &o : ops)
                 request(s0, o);
         },
         [&] {
             allClients(applied,
                        [](svc::Session &s, const check::SvcOpSpec &o) {
                            s.apply(o.kind, o.block, o.is_write);
                        });
         },
         [&] {
             allClients(requested,
                        [](svc::Session &s, const check::SvcOpSpec &o) {
                            request(s, o);
                        });
         }});
    const char *names[] = {"svc.engine_ns_per_op", "svc.session_ns_per_op",
                           "svc.request_ns_per_op.1c",
                           "svc.apply_ns_per_op.4c",
                           "svc.request_ns_per_op.4c"};
    for (std::size_t s = 0; s < 5; ++s)
        res.add(names[s], column(rounds, s) / n, "ns/op");

    // Counts of the request stage.
    svc::TenantStats st = requested.service->totalStats();
    const double probes = static_cast<double>(std::max<std::uint64_t>(
        1, st.probe_ops));
    const double reqs = static_cast<double>(requestOps(st));
    check::ViolationLog log;
    check::checkAdmissionConservation(st.admission, "traced run", log);
    res.check(log.ok(), "admission conservation violated");
    res.attempted += st.admission.admitted;
    res.failed += st.admission.admitted - st.admission.completed;
    res.add("svc.optimistic_frac", st.optimistic_reads / probes, "ratio");
    res.add("svc.seqlock_retries_per_probe", st.seqlock_retries / probes,
            "ratio");
    res.add("svc.locked_reads", static_cast<double>(st.locked_reads),
            "count");
    res.add("svc.hit_frac", requestHits(st) / reqs, "ratio");
    res.add("svc.evictions_per_op", st.evictions / reqs, "ratio");
    res.add("svc.inflight_peak",
            requested.service->admission().inflightPeak(), "count");
}

} // namespace

RunResult
runTraced(const RunContext &ctx)
{
    RunResult res;
    traceSimLayers(ctx, res);
    traceSvcLayers(ctx, res);
    return res;
}

} // namespace perf
} // namespace assoc
