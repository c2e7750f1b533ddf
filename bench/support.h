/**
 * @file
 * Shared plumbing for the benchmark harnesses: common command-line
 * flags (trace length, seed, output format, parallelism) on top of
 * the library's experiment runner (sim/runner.h) and the parallel
 * sweep engine (exec/sweep.h).
 *
 * Every bench binary regenerates one table or figure of the paper;
 * see DESIGN.md section 5 for the experiment index. Sweep-shaped
 * benches submit all their RunSpecs through runSweep(), which runs
 * them on --jobs N workers (--jobs 1 runs them inline, in order)
 * and returns results in submission order, so the printed tables
 * are identical at any job count.
 */

#ifndef ASSOC_BENCH_SUPPORT_H
#define ASSOC_BENCH_SUPPORT_H

#include "exec/fault.h"
#include "exec/sweep.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/error.h"
#include "util/table.h"

namespace assoc {
namespace bench {

// The runner and sweep APIs, re-exported under the bench namespace.
using exec::JobResult;
using exec::JobStatus;
using exec::SweepResult;
using sim::cacheName;
using sim::RunOutput;
using sim::RunSpec;
using sim::runTrace;
using sim::Table4Config;
using sim::table4Configs;

/** Flags shared by the bench binaries. The members after `progress`
 *  are the sweep flags: only benches that run a sweep register them
 *  (addSweepFlags); the others keep their defaults. */
struct CommonArgs
{
    unsigned segments = 23;     ///< ATUM-like sub-traces to run
    std::uint64_t seed = 0;     ///< 0 = the generator's default
    TextTable::Format format = TextTable::Format::Text;
    unsigned jobs = 0;          ///< sweep workers; 0 = all cores
    bool progress = false;      ///< stderr progress lines

    std::string json_path;      ///< machine-readable sweep results
    unsigned retries = 1;       ///< per-job retries (transient errors)
    bool keep_going = false;    ///< render failed jobs as gaps
    std::string journal_path;   ///< --journal: fresh checkpoint file
    std::string resume_path;    ///< --resume: replay missing jobs only
    std::int64_t fail_job = -1; ///< --fail-job: inject a failure (tests)

    std::uint64_t job_timeout_ns = 0;    ///< --job-timeout (0 = none)
    std::uint64_t sweep_deadline_ns = 0; ///< --sweep-deadline (0 = none)
    std::uint64_t mem_budget = 0;        ///< --mem-budget bytes (0 = none)
};

/** Register the flags every bench takes on @p parser: --segments,
 *  --seed, --output, --jobs and --progress. */
void addCommonFlags(ArgParser &parser);

/** addCommonFlags() plus the flags of a bench that runs a sweep:
 *  --json, --retries, --keep-going, --journal, --resume,
 *  --fail-job, --job-timeout, --sweep-deadline and --mem-budget. */
void addSweepFlags(ArgParser &parser);

/** Extract the flags addCommonFlags() registered, after parsing. */
CommonArgs readCommonFlags(const ArgParser &parser);

/** Extract the flags addSweepFlags() registered, after parsing. */
CommonArgs readSweepFlags(const ArgParser &parser);

/** Trace configuration implied by the shared flags. */
trace::AtumLikeConfig traceConfig(const CommonArgs &args);

/**
 * Run @p specs in parallel per the shared flags, each job replaying
 * the identical trace implied by them. Results come back in
 * submission order; output built from them is byte-identical to the
 * serial loop's at any --jobs value.
 */
std::vector<RunOutput> runSweep(const std::vector<RunSpec> &specs,
                                const CommonArgs &args,
                                const std::string &label = "sweep");

/**
 * Fault-isolated variant of runSweep(): one JobResult per spec. A
 * failing job never aborts the sweep; each failure is reported to
 * stderr and the caller decides (usually via --keep-going) whether
 * to render gaps or give up. Honors --retries, --journal, --resume
 * and --fail-job, and installs a SIGINT handler when a journal is
 * in use so ^C checkpoints cleanly (the sweep then throws a
 * Cancelled ErrorException, exiting 130 under guardedMain()).
 *
 * The trace is synthesized once and replayed from memory by every
 * job, charged to --mem-budget; a budget too small for it makes each
 * job stream its own generator instead (exec::runSweepChecked).
 *
 * Honors the runaway-work flags too: --job-timeout, --sweep-deadline
 * and --mem-budget (see docs/ROBUSTNESS.md). Jobs those kill come
 * back TimedOut / OverBudget and always render as gaps — no
 * --keep-going needed, since a deadline cutting a sweep short is the
 * requested behavior, not a malfunction; sweepExitCode() still
 * reports them via exit code 4.
 *
 * Throws when the sweep was interrupted, or when jobs *failed* and
 * @p args.keep_going is unset.
 */
SweepResult runSweepChecked(const std::vector<RunSpec> &specs,
                            const CommonArgs &args,
                            const std::string &label = "sweep");

/** Exit code for a finished checked sweep: 4 when any job was
 *  timed out or over budget (resource-killed partial output), else
 *  2 when any job failed (partial output), 0 otherwise. */
int sweepExitCode(const SweepResult &result);

/** The table cell rendered for a failed sweep point. */
std::string gapCell();

/** A whole table row of gap cells behind a leading label. */
std::vector<std::string> gapRow(const std::string &head,
                                std::size_t cols);

/**
 * Run arbitrary independent thunks per the shared flags (for bench
 * sections that drive hierarchies directly instead of runTrace).
 * Each thunk must write only to its own pre-allocated slot.
 */
void runJobs(std::vector<std::function<void()>> jobs,
             const CommonArgs &args,
             const std::string &label = "sweep");

/** When --json was given, write the sweep results there. */
void maybeWriteSweepJson(const CommonArgs &args,
                         const std::vector<RunSpec> &specs,
                         const std::vector<RunOutput> &outs);

/** Checked-sweep variant: carries per-job status/error/attempts. */
void maybeWriteSweepJson(const CommonArgs &args,
                         const std::vector<RunSpec> &specs,
                         const SweepResult &result);

} // namespace bench
} // namespace assoc

#endif // ASSOC_BENCH_SUPPORT_H
