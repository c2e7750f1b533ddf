/**
 * @file
 * The timed runs: end-to-end metrics, measured from outside the
 * program, with the outputs checked.
 *
 * Sweep workloads invoke the real binary repeatedly for the run's
 * seconds; one invocation is one sample (its wall time, and its CPU
 * time from wait4). Service workloads run closed-loop clients for
 * the run's seconds, cut into slices; one slice is one sample. Each
 * metric is the median of its samples, so one disturbed sample
 * moves nothing.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <thread>

#include "perf.h"
#include "trace/ftr_reader.h"

namespace assoc {
namespace perf {
namespace {

/** Set-up passes per run; setup_s is their median. */
constexpr unsigned kSetups = 5;
/** Sweep invocations per run, however long one takes. */
constexpr std::size_t kMinReps = 3;

/** One sweep binary invocation and what its outputs must match. */
struct SweepCall
{
    std::vector<std::string> argv;
    std::string stdout_path;
    std::string json_path;
    std::size_t jobs = 0;           ///< sweep jobs per invocation
    std::uint64_t refs_per_job = 0; ///< references one job simulates
    /** One job's JSON body, computed in-process after the timed
     *  region; the sweep's JSON must hold it verbatim. */
    std::function<std::string()> reference;
    std::string golden;          ///< perf/golden file at seed 1
    bool golden_is_json = false; ///< golden holds the JSON, not stdout
};

/** Median seconds of kSetups runs of @p setup. */
double
timeSetup(const std::function<void()> &setup)
{
    std::vector<double> s;
    for (unsigned i = 0; i < kSetups; ++i) {
        Clock::time_point t0 = Clock::now();
        setup();
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(std::move(s));
}

/** Time repeated invocations of @p call and check their outputs. */
void
timeSweep(const RunContext &ctx, const SweepCall &call, RunResult &res)
{
    // Warm-up invocation (page cache, binary load). Its outputs are
    // the ones checked; every timed invocation must reproduce them.
    requireExit(spawnChild(call.argv, call.stdout_path), call.argv[0],
                call.stdout_path);
    const std::string out0 = readFile(call.stdout_path);
    const std::string json0 = readFile(call.json_path);

    std::vector<double> wall, cpu;
    Clock::time_point start = Clock::now();
    while (wall.size() < kMinReps ||
           secondsBetween(start, Clock::now()) < ctx.seconds) {
        ChildRun r = spawnChild(call.argv, call.stdout_path);
        requireExit(r, call.argv[0], call.stdout_path);
        res.attempted += call.jobs;
        wall.push_back(r.wall_s);
        cpu.push_back(r.cpu_s);
        res.check(readFile(call.stdout_path) == out0 &&
                      readFile(call.json_path) == json0,
                  "invocation " + std::to_string(wall.size()) +
                      " printed other results than the first");
    }

    checkSweepJson(json0, call.jobs, res);
    res.check(json0.find(call.reference()) != std::string::npos,
              "sweep results differ from the in-process reference job");
    if (ctx.seed == 1 && !ctx.quick) {
        std::string want = readFile(goldenPath(call.golden));
        res.check(!want.empty() &&
                      (call.golden_is_json ? json0 : out0) == want,
                  "output differs from perf/golden/" + call.golden);
    }

    const double refs = static_cast<double>(call.jobs * call.refs_per_job);
    std::vector<double> rate, cpu_per_ref;
    for (std::size_t i = 0; i < wall.size(); ++i) {
        rate.push_back(refs / wall[i]);
        cpu_per_ref.push_back(cpu[i] * 1e9 / refs);
    }
    res.add("ops_per_s", median(rate), "1/s");
    res.add("cpu_ns_per_op", median(cpu_per_ref), "ns");
    // A sweep's latency is one invocation, start to exit. A run holds
    // 6-50 invocations, so its tail is the upper quartile: a p99
    // would be the single slowest one.
    res.add("latency_p50_us", median(wall) * 1e6, "us");
    res.add("latency_tail_us", quantile(wall, 0.75) * 1e6, "us");
}

RunResult
table4Synth(const RunContext &ctx)
{
    RunResult res;
    res.jobs = ctx.cap(4);
    SweepCall call;
    // Set-up: synthesize the run's trace once, the input each job of
    // the sweep makes again for itself.
    const double setup_s = timeSetup([&] {
        trace::AtumLikeGenerator gen(table4Trace(ctx));
        call.refs_per_job = drain(gen);
    });
    // The reference job: a = 16 on Figure 3's 16K-16 / 256K-32, the
    // costliest row of the sweep.
    call.reference = [&ctx] {
        const sim::RunSpec spec = table4Specs()[16];
        trace::AtumLikeGenerator gen(table4Trace(ctx));
        return runBody(spec, sim::runTrace(gen, spec));
    };

    call.argv = {benchTable4Path(),
                 "--segments=" + std::to_string(ctx.sizes.table4_segments),
                 "--seed=" + std::to_string(ctx.seed),
                 "--jobs=" + std::to_string(res.jobs),
                 "--json=" + ctx.work("table4.json")};
    call.stdout_path = ctx.work("table4.out");
    call.json_path = ctx.work("table4.json");
    call.jobs = table4Specs().size();
    call.golden = "table4_synth.seed1.txt";
    timeSweep(ctx, call, res);
    res.add("setup_s", setup_s, "s");
    return res;
}

/** The number after @p key in @p text (0 when absent). */
std::uint64_t
countAfter(const std::string &text, const std::string &key)
{
    std::size_t p = text.find(key);
    if (p == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + p + key.size(), nullptr, 10);
}

RunResult
ftrReplay(const RunContext &ctx)
{
    // ftrTrace(ctx) is the corpus these arguments write.
    auto gen_argv = [&ctx](const std::string &path) {
        return std::vector<std::string>{
            tracePackPath(), "gen", path,
            "--refs=" + std::to_string(ctx.sizes.ftr_refs),
            "--segments=23", "--seed=" + std::to_string(ctx.seed)};
    };
    RunResult res;
    res.jobs = ctx.cap(3);
    const std::string corpus = ctx.work("corpus.ftr");

    SweepCall call;
    // Set-up: generate the corpus the sweep reads.
    const double setup_s = timeSetup([&] {
        const std::string gen_out = ctx.work("gen.out");
        requireExit(spawnChild(gen_argv(corpus), gen_out),
                    "trace_pack gen", gen_out);
        call.refs_per_job = countAfter(readFile(gen_out), "wrote ");
    });
    // The reference job: a = 8, the sweep's costliest.
    call.reference = [&corpus] {
        const sim::RunSpec spec = tracePackSpecs()[2];
        trace::FtrTraceSource src(corpus);
        return runBody(spec, sim::runTrace(src, spec));
    };

    call.argv = {tracePackPath(), "sweep", corpus,
                 "--jobs=" + std::to_string(res.jobs),
                 "--json=" + ctx.work("ftr.json")};
    call.stdout_path = ctx.work("ftr.out");
    call.json_path = ctx.work("ftr.json");
    call.jobs = tracePackSpecs().size();
    call.golden = "ftr_replay.seed1.json";
    call.golden_is_json = true;
    timeSweep(ctx, call, res);

    // The corpus reads back whole: every generated record, none lost.
    const std::string verify_out = ctx.work("verify.out");
    requireExit(spawnChild({tracePackPath(), "verify", corpus}, verify_out),
                "trace_pack verify", verify_out);
    std::string verify = readFile(verify_out);
    res.check(call.refs_per_job > 0 &&
                  countAfter(verify, "records: ") == call.refs_per_job,
              "trace_pack verify count differs from the generated count");
    res.check(verify.find("skipped: 0\n") != std::string::npos,
              "trace_pack verify skipped records");
    res.add("setup_s", setup_s, "s");
    return res;
}

/** One client's counts, filled in as its slices end. */
struct ClientLog
{
    std::vector<std::uint64_t> ops;                 ///< per slice
    std::vector<std::vector<std::uint32_t>> lat_ns; ///< per slice
    std::uint64_t errors = 0;
};

/**
 * A closed-loop client: the next request goes out when the previous
 * one returns. Runs until @p slice passes @p last; every 16th
 * request is timed. Counts stay in locals until a slice ends, so
 * clients never write shared cache lines in the loop.
 */
void
clientLoop(svc::Session &s, const std::vector<check::SvcOpSpec> &ops,
           const std::atomic<unsigned> &slice, unsigned last,
           ClientLog &log)
{
    std::size_t i = 0;
    unsigned cur = 0;
    std::uint64_t done = 0, errors = 0;
    std::vector<std::uint32_t> lat;
    for (;;) {
        unsigned k = slice.load(std::memory_order_acquire);
        if (k != cur) {
            log.ops[cur] = done;
            std::size_t expect = lat.size() + lat.size() / 4;
            log.lat_ns[cur] = std::move(lat);
            lat = {};
            lat.reserve(expect);
            done = 0;
            cur = k;
        }
        if (k > last)
            break;
        for (int j = 0; j < 15; ++j) {
            errors += !request(s, ops[i]);
            if (++i == ops.size())
                i = 0;
        }
        Clock::time_point t0 = Clock::now();
        bool ok = request(s, ops[i]);
        Clock::time_point t1 = Clock::now();
        errors += !ok;
        if (++i == ops.size())
            i = 0;
        done += 16;
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t1 - t0)
                      .count();
        lat.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(ns, UINT32_MAX)));
    }
    log.errors = errors;
}

/**
 * The serializability check on a separate, untimed pass: every
 * client issues its first svc_history requests with history
 * recording on, and the merged history must replay exactly.
 */
void
checkHistory(const RunContext &ctx, const SvcMix &mix, unsigned clients,
             RunResult &res)
{
    const std::uint64_t n = ctx.sizes.svc_history;
    // Session 0 also records the prefill: one fill per cache line.
    const mem::CacheGeometry g = svcGeometry();
    SvcRig rig = makeSvcRig(ctx, mix, clients, n,
                            n + std::uint64_t(g.sets()) * g.assoc());
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < clients; ++t)
            threads.emplace_back([&rig, t] {
                for (const check::SvcOpSpec &op : rig.streams[t])
                    request(*rig.sessions[t], op);
            });
    }
    check::ViolationLog log;
    bool overflowed = false;
    std::vector<svc::HistoryEvent> events =
        rig.service->collectHistory(&overflowed);
    if (overflowed)
        log.add("history overflowed");
    check::checkSvcHistory(svcGeometry(),
                           rig.service->config().engine.policy,
                           rig.service->engine().stripes(), events,
                           &rig.service->engine().cache(), log);
    check::checkAdmissionConservation(rig.service->totalStats().admission,
                                      "history pass", log);
    res.check(log.ok(),
              std::to_string(log.count()) + " svc history violation(s)" +
                  (log.messages().empty() ? ""
                                          : ": " + log.messages()[0]));
}

RunResult
svcWorkload(const RunContext &ctx, bool writes)
{
    RunResult res;
    const unsigned clients = ctx.cap(4);
    res.clients = clients;
    const SvcMix mix = svcMix(writes);

    // Set-up: the service, its sessions, their op streams, prefill.
    // A pass frees the previous pass's rig first, so no two rigs'
    // streams (about 50 MB each) are held at once.
    SvcRig rig;
    const double setup_s = timeSetup([&] {
        rig = {};
        rig = makeSvcRig(ctx, mix, clients, ctx.sizes.svc_stream);
    });

    // Slice 0 warms up (untimed); slices 1..last are measured; the
    // clients stop when the counter passes last.
    const unsigned last = std::max(
        1u, static_cast<unsigned>(ctx.seconds / ctx.sizes.slice_s + 0.5));
    const auto slice_len = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(ctx.seconds / last));
    std::atomic<unsigned> slice{0};
    std::vector<ClientLog> logs(clients);
    for (ClientLog &log : logs) {
        log.ops.assign(last + 2, 0);
        log.lat_ns.resize(last + 2);
    }
    std::vector<Clock::time_point> edge(last + 2);
    std::vector<std::uint64_t> cpu(last + 2);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < clients; ++t)
            threads.emplace_back([&, t] {
                clientLoop(*rig.sessions[t], rig.streams[t], slice, last,
                           logs[t]);
            });
        edge[0] = Clock::now();
        cpu[0] = processCpuNs();
        for (unsigned k = 1; k <= last + 1; ++k) {
            std::this_thread::sleep_until(edge[0] + k * slice_len);
            edge[k] = Clock::now();
            cpu[k] = processCpuNs();
            slice.store(k, std::memory_order_release);
        }
    }

    std::vector<double> rate, cpu_per_op, p50, p99, p999;
    for (unsigned k = 1; k <= last; ++k) {
        std::uint64_t ops = 0;
        std::vector<double> lat;
        for (const ClientLog &log : logs) {
            ops += log.ops[k];
            lat.insert(lat.end(), log.lat_ns[k].begin(),
                       log.lat_ns[k].end());
        }
        if (ops == 0 || lat.empty()) {
            res.check(false, "slice " + std::to_string(k) +
                                 " completed no requests");
            continue;
        }
        std::sort(lat.begin(), lat.end());
        rate.push_back(ops / secondsBetween(edge[k], edge[k + 1]));
        cpu_per_op.push_back(static_cast<double>(cpu[k + 1] - cpu[k]) /
                             ops);
        p50.push_back(sortedQuantile(lat, 0.5) / 1e3);
        p99.push_back(sortedQuantile(lat, 0.99) / 1e3);
        p999.push_back(sortedQuantile(lat, 0.999) / 1e3);
    }
    if (rate.empty())
        throwError(Error::internal("no slice completed a request"));

    svc::TenantStats st = rig.service->totalStats();
    const svc::AdmissionStats &a = st.admission;
    check::ViolationLog log;
    check::checkAdmissionConservation(a, "timed run", log);
    res.check(log.ok(), "admission conservation violated");
    std::uint64_t errors = 0;
    for (const ClientLog &l : logs)
        errors += l.errors;
    res.attempted = a.admitted;
    res.failed = a.admitted - a.completed;
    res.check(res.failed == 0 && errors == 0,
              "requests were shed or failed; this admission "
              "configuration never sheds");
    if (!writes)
        res.check(requestHits(st) == requestOps(st) && st.evictions == 0,
                  "svc_read missed its resident working set");
    checkHistory(ctx, mix, clients, res);

    res.add("ops_per_s", median(rate), "1/s");
    res.add("cpu_ns_per_op", median(cpu_per_op), "ns");
    res.add("latency_p50_us", median(p50), "us");
    // The tail of ~150k sampled requests a slice: p99.
    res.add("latency_tail_us", median(p99), "us");
    res.add("setup_s", setup_s, "s");
    // Past p99 the samples are host preemption on a shared machine
    // and do not repeat, so p999 is reported, not gated.
    res.extra.push_back({"latency_p999_us", median(p999), "us"});
    return res;
}

} // namespace

RunResult
runTimed(const RunContext &ctx)
{
    if (ctx.workload == "table4_synth")
        return table4Synth(ctx);
    if (ctx.workload == "ftr_replay")
        return ftrReplay(ctx);
    return svcWorkload(ctx, ctx.workload == "svc_write");
}

} // namespace perf
} // namespace assoc
