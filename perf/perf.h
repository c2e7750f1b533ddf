/**
 * @file
 * Shared pieces of assoc_perf, the repository's end-to-end
 * benchmark (perf/README.md): run context, result collection,
 * statistics, child-process spawning, and the workload definitions
 * both the timed and the traced runs use.
 */

#ifndef ASSOC_PERF_PERF_H
#define ASSOC_PERF_PERF_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/svc_check.h"
#include "sim/runner.h"
#include "svc/service.h"
#include "trace/atum_like.h"

namespace assoc {
namespace perf {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** CPU time of this process, all threads, in nanoseconds. */
std::uint64_t processCpuNs();

/** Linear-interpolated quantile @p q in [0, 1] of ascending,
 *  non-empty @p sorted. */
double sortedQuantile(const std::vector<double> &sorted, double q);

/** sortedQuantile of @p v after sorting it. */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct RunResult
{
    std::uint64_t attempted = 0; ///< jobs or requests issued
    std::uint64_t failed = 0;    ///< of those, not completed
    std::vector<Metric> metrics; ///< the contract's metrics
    /** Reported in the --out file only (not part of the contract). */
    std::vector<Metric> extra;
    std::vector<std::string> problems; ///< failed output checks
    unsigned jobs = 0;    ///< sweep workers used
    unsigned clients = 0; ///< svc client threads used

    void add(const std::string &name, double value,
             const std::string &unit);

    /** Record a failed output check unless @p ok. */
    void check(bool ok, const std::string &what);

    bool correct() const { return problems.empty(); }
};

/** Input sizes. --quick shrinks them for the self-test. */
struct Sizes
{
    unsigned table4_segments = 4;          ///< ATUM-like sub-traces
    std::uint64_t ftr_refs = 2'000'000;    ///< corpus references
    std::uint64_t svc_stream = 1u << 20;   ///< ops per client stream
    std::uint64_t svc_history = 50'000;    ///< checked requests/client
    double slice_s = 0.5;                  ///< svc measurement slice
    unsigned passes = 9;                   ///< traced rounds
};

/** One invocation of assoc_perf. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool quick = false;
    Sizes sizes;
    std::string work_dir; ///< outputs of the programs under test
    unsigned nproc = 1;   ///< CPUs this process may run on

    /** min(@p want, nproc): no run uses more workers than CPUs. */
    unsigned cap(unsigned want) const;

    /** @p name inside the work directory. */
    std::string work(const std::string &name) const;
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// --- the programs under test ------------------------------------

/** What waiting for one child process gave. */
struct ChildRun
{
    int exit_code = -1; ///< 128+signal when killed
    double wall_s = 0.0;
    double cpu_s = 0.0; ///< user + system, from wait4
    double maxrss_mb = 0.0;
};

/** Run @p argv to completion with stdout in @p stdout_path. */
ChildRun spawnChild(const std::vector<std::string> &argv,
                    const std::string &stdout_path);

/** Throw, quoting the child's stderr, unless @p run exited 0. */
void requireExit(const ChildRun &run, const std::string &what,
                 const std::string &stdout_path);

std::string benchTable4Path();
std::string tracePackPath();

/** Whole contents of @p path ("" when unreadable). */
std::string readFile(const std::string &path);

/** perf/golden/@p name. */
std::string goldenPath(const std::string &name);

// --- workload definitions ---------------------------------------

/** bench_table4's 24 specs, in its submission order. */
std::vector<sim::RunSpec> table4Specs();

/** Pull @p src from its start to its end in batches of 64;
 *  @return records read. */
std::uint64_t drain(trace::TraceSource &src);

/** The synthesized trace bench_table4 replays for @p ctx. */
trace::AtumLikeConfig table4Trace(const RunContext &ctx);

/** trace_pack sweep's three specs, in its submission order. */
std::vector<sim::RunSpec> tracePackSpecs();

/** The corpus `trace_pack gen` writes for @p ctx. */
trace::AtumLikeConfig ftrTrace(const RunContext &ctx);

/**
 * The JSON run body exec::writeSweepJson prints for one job, so a
 * reference computed in-process can be found in a child's output.
 */
std::string runBody(const sim::RunSpec &spec, const sim::RunOutput &out);

/**
 * Check a sweep JSON document: @p runs jobs, every one ok, nothing
 * skipped, and in every row read-in misses cost what a scan of the
 * whole set costs: a probes for Naive, a + 1 for MRU, less only by
 * the rare truncated-tag aliases.
 */
void checkSweepJson(const std::string &json, std::size_t runs,
                    RunResult &res);

/** A service op mix (fractions of the client's stream). */
struct SvcMix
{
    double probe_frac = 0.9;
    double write_frac = 0.0; ///< dirty share of the access ops
    std::uint32_t working_set = 0; ///< distinct blocks drawn
};

/** The svc_read mix, or svc_write's when @p writes. */
SvcMix svcMix(bool writes);

mem::CacheGeometry svcGeometry();

/** A service, its client sessions and their op streams. */
struct SvcRig
{
    std::unique_ptr<svc::CacheService> service;
    std::vector<svc::Session *> sessions;
    std::vector<std::vector<check::SvcOpSpec>> streams;
};

/**
 * Build a service with admission on (refill 1/1, burst 64, no
 * in-flight cap: by construction nothing is shed), open @p clients
 * sessions with @p stream_len-op streams, and prefill the working
 * set (up to capacity) as Fill ops of session 0. @p history > 0
 * records that many events per session for the serializability
 * checker.
 */
SvcRig makeSvcRig(const RunContext &ctx, const SvcMix &mix,
                  unsigned clients, std::uint64_t stream_len,
                  std::size_t history = 0);

/** Issue one op through the full request path; false on error. */
inline bool
request(svc::Session &s, const check::SvcOpSpec &op)
{
    return s.request(op.kind, op.block, op.is_write).ok();
}

/** Probes and accesses (the requests), apart from prefill fills. */
inline std::uint64_t
requestOps(const svc::TenantStats &st)
{
    return st.probe_ops + st.accesses;
}

/** Of those, the ones that found their block. */
inline std::uint64_t
requestHits(const svc::TenantStats &st)
{
    return st.probe_hits + st.access_hits;
}

/** The timed run of ctx.workload: end-to-end metrics. */
RunResult runTimed(const RunContext &ctx);

/** The traced run of ctx.workload: per-layer metrics. */
RunResult runTraced(const RunContext &ctx);

} // namespace perf
} // namespace assoc

#endif // ASSOC_PERF_PERF_H
