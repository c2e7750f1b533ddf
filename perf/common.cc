#include "perf.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "exec/report.h"
#include "util/rng.h"

extern char **environ;

namespace assoc {
namespace perf {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    panicIf(sorted.empty(), "quantile of no samples");
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= sorted.size())
        return sorted.back();
    return sorted[i] + (sorted[i + 1] - sorted[i]) *
                           (pos - static_cast<double>(i));
}

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return sortedQuantile(v, q);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

void
RunResult::add(const std::string &name, double value,
               const std::string &unit)
{
    // JSON has no NaN or infinity; a metric that is not a number is
    // a broken measurement, not a value to report.
    check(std::isfinite(value), name + " is not a finite number");
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
RunResult::check(bool ok, const std::string &what)
{
    if (!ok)
        problems.push_back(what);
}

unsigned
RunContext::cap(unsigned want) const
{
    return std::max(1u, std::min(want, nproc));
}

std::string
RunContext::work(const std::string &name) const
{
    return work_dir + "/" + name;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "table4_synth", "ftr_replay", "svc_read", "svc_write"};
    return names;
}

ChildRun
spawnChild(const std::vector<std::string> &argv,
           const std::string &stdout_path)
{
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    // stderr goes beside stdout so a failing child can be diagnosed
    // without flooding the benchmark's own log.
    std::string stderr_path = stdout_path + ".err";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throwError(Error::io("cannot start " + argv[0] + ": " +
                             std::strerror(rc)));

    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            throwError(Error::io("waiting for " + argv[0] + ": " +
                                 std::strerror(errno)));
    }
    ChildRun r;
    r.wall_s = secondsBetween(t0, Clock::now());
    r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
    return r;
}

void
requireExit(const ChildRun &run, const std::string &what,
            const std::string &stdout_path)
{
    if (run.exit_code == 0)
        return;
    std::string err = readFile(stdout_path + ".err");
    throwError(Error::internal(what + " exited " +
                               std::to_string(run.exit_code) + ": " +
                               err.substr(0, err.find('\n'))));
}

std::string
benchTable4Path()
{
    return ASSOC_PERF_BENCH_TABLE4;
}

std::string
tracePackPath()
{
    return ASSOC_PERF_TRACE_PACK;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(ASSOC_PERF_SOURCE_DIR) + "/golden/" + name;
}

std::vector<sim::RunSpec>
table4Specs()
{
    // bench_table4.cc at its default --tagbits=16.
    std::vector<sim::RunSpec> specs;
    for (unsigned assoc : {4u, 8u, 16u}) {
        for (const sim::Table4Config &cfg : sim::table4Configs()) {
            sim::RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(cfg.l1_bytes, cfg.l1_block, 1),
                mem::CacheGeometry(cfg.l2_bytes, cfg.l2_block, assoc),
                true};
            core::SchemeSpec naive, mru;
            naive.kind = core::SchemeKind::Naive;
            mru.kind = core::SchemeKind::Mru;
            spec.schemes = {naive, mru,
                            core::SchemeSpec::paperPartial(assoc, 16)};
            specs.push_back(spec);
        }
    }
    return specs;
}

std::uint64_t
drain(trace::TraceSource &src)
{
    trace::MemRef buf[64];
    std::uint64_t n = 0;
    src.reset();
    while (std::size_t k = src.nextBatch(buf, 64))
        n += k;
    return n;
}

trace::AtumLikeConfig
table4Trace(const RunContext &ctx)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = ctx.sizes.table4_segments;
    if (ctx.seed != 0)
        cfg.seed = ctx.seed;
    return cfg;
}

std::vector<sim::RunSpec>
tracePackSpecs()
{
    // trace_pack.cc's sweepSpecs().
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = {mem::CacheGeometry(4096, 16, 1),
                     mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec s;
        s.kind = core::SchemeKind::Naive;
        spec.schemes.push_back(s);
        s.kind = core::SchemeKind::Mru;
        spec.schemes.push_back(s);
        spec.schemes.push_back(core::SchemeSpec::paperPartial(a));
        specs.push_back(spec);
    }
    return specs;
}

trace::AtumLikeConfig
ftrTrace(const RunContext &ctx)
{
    // What `trace_pack gen --refs=N --segments=23 --seed=S` builds.
    trace::AtumLikeConfig cfg;
    cfg.segments = 23;
    if (ctx.seed != 0)
        cfg.seed = ctx.seed;
    cfg.refs_per_segment =
        std::max<std::uint64_t>(1, ctx.sizes.ftr_refs / cfg.segments);
    return cfg;
}

std::string
runBody(const sim::RunSpec &spec, const sim::RunOutput &out)
{
    std::ostringstream os;
    exec::writeSweepJson(os, std::vector<sim::RunSpec>{spec},
                         std::vector<sim::RunOutput>{out});
    const std::string doc = os.str();
    const std::string open = "    {\n", close = "\n    }";
    std::size_t b = doc.find(open) + open.size();
    std::size_t e = doc.rfind(close);
    return doc.substr(b, e - b);
}

namespace {

bool
contains(const std::string &s, const std::string &needle)
{
    return s.find(needle) != std::string::npos;
}

/** The number after `"key": ` in @p line (NaN when absent). */
double
field(const std::string &line, const std::string &key)
{
    std::size_t p = line.find("\"" + key + "\": ");
    if (p == std::string::npos)
        return std::nan("");
    return std::strtod(line.c_str() + p + key.size() + 4, nullptr);
}

/** a from an `"l2": "256K-32 16-way",` line (0 when absent). */
unsigned
assocOf(const std::string &line)
{
    std::size_t way = line.find("-way\"");
    std::size_t sp = line.rfind(' ', way);
    if (way == std::string::npos || sp == std::string::npos)
        return 0;
    return static_cast<unsigned>(
        std::strtoul(line.c_str() + sp + 1, nullptr, 10));
}

} // namespace

void
checkSweepJson(const std::string &json, std::size_t runs,
               RunResult &res)
{
    std::size_t rows = 0, statuses = 0, ok = 0, naive = 0, mru = 0;
    bool closed_forms = true;
    unsigned a = 0;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (contains(line, "\"status\": ")) {
            ++statuses;
            ok += contains(line, "\"status\": \"ok\"");
        }
        if (contains(line, "\"l2\": \"")) {
            ++rows;
            a = assocOf(line);
        }
        // A miss scans the whole set: a probes for Naive, a + 1 for
        // MRU (list read first). Only a truncated-tag alias, counted
        // as a miss by the simulator's full-tag truth, stops a scan
        // early, and aliases are rare.
        double misses = field(line, "read_in_misses_mean");
        if (contains(line, "{\"name\": \"Naive\"")) {
            ++naive;
            closed_forms &= misses <= a && misses > a - 1.0;
        }
        if (contains(line, "{\"name\": \"MRU\"")) {
            ++mru;
            closed_forms &= misses <= a + 1.0 && misses > a;
        }
    }
    res.check(rows == runs, "sweep JSON has " + std::to_string(rows) +
                                " runs, want " + std::to_string(runs));
    // The status-free form (trace_pack, all jobs ok) has no status.
    res.check(statuses == 0 || ok == runs,
              "sweep JSON: " + std::to_string(ok) + " of " +
                  std::to_string(runs) + " jobs ok");
    res.check(!contains(json, "\"skipped_records\""),
              "sweep JSON reports skipped records");
    res.check(naive == runs && mru == runs && closed_forms,
              "sweep JSON: a Naive or MRU miss did not scan its set");
}

SvcMix
svcMix(bool writes)
{
    mem::CacheGeometry g = svcGeometry();
    std::uint32_t capacity = g.sets() * g.assoc();
    if (writes)
        return {0.1, 0.5, 4 * capacity};
    return {0.9, 0.0, capacity};
}

mem::CacheGeometry
svcGeometry()
{
    return mem::CacheGeometry(65536, 32, 8);
}

SvcRig
makeSvcRig(const RunContext &ctx, const SvcMix &mix, unsigned clients,
           std::uint64_t stream_len, std::size_t history)
{
    mem::CacheGeometry geom = svcGeometry();
    svc::SvcConfig cfg;
    cfg.admission.enabled = true;
    cfg.admission.quota_burst = 64;
    cfg.admission.refill_num = 1;
    cfg.admission.refill_den = 1;
    cfg.admission.max_inflight = 0;
    cfg.admission.seed = ctx.seed;
    cfg.record_history = history > 0;
    cfg.history_capacity = history;

    SvcRig rig;
    Expected<std::unique_ptr<svc::CacheService>> made =
        svc::CacheService::create(geom, cfg);
    if (!made.ok())
        throwError(made.error());
    rig.service = made.take();

    for (unsigned t = 0; t < clients; ++t) {
        Expected<svc::Session *> s = rig.service->openSession();
        if (!s.ok())
            throwError(s.error());
        rig.sessions.push_back(s.value());

        Pcg32 rng(ctx.seed, 0x5e55 + t);
        std::vector<check::SvcOpSpec> ops(stream_len);
        for (check::SvcOpSpec &op : ops) {
            if (rng.uniform() < mix.probe_frac) {
                op.kind = svc::OpKind::Probe;
            } else {
                op.kind = svc::OpKind::Access;
                op.is_write = rng.chance(mix.write_frac);
            }
            op.block = rng.below(mix.working_set);
        }
        rig.streams.push_back(std::move(ops));
    }

    // Blocks 0..capacity-1 fill every way of every set exactly once,
    // so svc_read's working set is resident before the first request.
    // The fills go through a session so a recorded history replays
    // from an empty cache; they are Fill ops, apart from the
    // requests' probes and accesses in the stats.
    std::uint32_t capacity = geom.sets() * geom.assoc();
    for (std::uint32_t b = 0; b < std::min(mix.working_set, capacity); ++b)
        rig.sessions[0]->fill(b, false);
    return rig;
}

} // namespace perf
} // namespace assoc
