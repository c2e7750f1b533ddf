/**
 * @file
 * Deterministic parallel sweep execution.
 *
 * Paper sweeps replay one seed-determined trace through many
 * independent RunSpecs; no mutable state is shared between runs, so
 * they are embarrassingly parallel. runSweepChecked() makes each
 * spec one job of runJobs() — each job gets its own TraceSource, so
 * workers never share a generator or a cursor — and returns one
 * JobResult per spec *in submission order* regardless of completion
 * order: the outputs are bit-identical at any jobs value.
 *
 * Given the trace's config instead of a factory, runSweepChecked()
 * synthesizes the trace once, charged to the sweep's memory budget,
 * and every job replays that one immutable buffer through its own
 * cursor (generate once, replay many). Every job replays the same
 * stream either way, so the outputs are identical.
 *
 * runJobs() is the one job runner: each worker takes the next job
 * from one shared cursor. With one worker the same loop runs inline,
 * in order, on the calling thread.
 *
 * @code
 *   std::vector<sim::RunSpec> specs = ...;
 *   exec::SweepOptions opt;
 *   opt.jobs = 4;
 *   exec::SweepResult res =
 *       exec::runSweepChecked(specs, trace_cfg, opt);
 * @endcode
 */

#ifndef ASSOC_EXEC_SWEEP_H
#define ASSOC_EXEC_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "exec/job_result.h"
#include "exec/report.h"
#include "exec/watchdog.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_file.h"
#include "util/cancel.h"

namespace assoc {
namespace exec {

class FaultInjector;

/** How runSweepChecked() executes a sweep. */
struct SweepOptions
{
    /** Worker threads (runJobs()); 0 = all hardware threads, 1 =
     *  inline on the calling thread, in spec order. Never more
     *  workers than jobs left to run. */
    unsigned jobs = 0;
    /** Optional completed-job sink (ticked once per job, from the
     *  worker that finished it). Not owned. */
    ProgressMeter *progress = nullptr;

    // --- fault tolerance ---

    /** Extra attempts per job after the first fails. Only transient
     *  (Io) errors and timeouts are retried; retries are
     *  deterministic — the factory rebuilds the same trace, so a
     *  genuinely deterministic failure would fail again. */
    unsigned max_retries = 1;
    /** Fault source for tests/fuzzing (not owned; may be null). */
    FaultInjector *inject = nullptr;
    /** Cooperative cancellation (not owned; may be null). Jobs not
     *  yet started when it trips are marked Cancelled; running jobs
     *  drain normally. */
    CancelToken *cancel = nullptr;
    /** Write a fresh checkpoint journal here ("" = none). */
    std::string journal_path;
    /** Resume from this journal: slots it holds are restored
     *  verbatim and only the rest run ("" = none). New completions
     *  are appended to it. */
    std::string resume_path;
    /** Spec/trace identity hash stamped into the journal header and
     *  validated on resume (see hashSpecs()). */
    std::uint64_t spec_hash = 0;

    // --- runaway-work defenses (see util/cancel.h) ---

    /** Per-job deadline, nanoseconds (0 = none). A job past it is
     *  cancelled by the watchdog, marked TimedOut, and retried once
     *  under the normal max_retries policy (timeouts count as
     *  transient: the machine may simply have been overloaded). */
    std::uint64_t job_timeout_ns = 0;
    /** Whole-sweep deadline, nanoseconds from entry (0 = none).
     *  When it passes, running jobs are cancelled and unstarted
     *  jobs are marked TimedOut without running. */
    std::uint64_t sweep_deadline_ns = 0;
    /** Global memory budget for all concurrent jobs and the sweep's
     *  shared trace, bytes (0 = unlimited). */
    std::uint64_t mem_budget = 0;
    /** Per-job memory budget, bytes (0 = unlimited); charges also
     *  count against mem_budget. */
    std::uint64_t job_mem_budget = 0;
    /** Accesses between cancellation checkpoints inside a job (see
     *  sim::RunSpec::checkpoint_every). */
    std::uint64_t checkpoint_every = 4096;
    /** Watchdog sampling/escalation tuning (log=false in tests). */
    Watchdog::Options watchdog;
};

/**
 * Builds one fresh TraceSource per job. Called once per job, from
 * that job's worker thread, with the job's submission index; must
 * be callable concurrently (it should only read shared config).
 */
using TraceFactory =
    std::function<std::unique_ptr<trace::TraceSource>(std::size_t)>;

/** A TraceFactory producing one AtumLikeGenerator per job from the
 *  shared config (every job replays the identical stream). The
 *  streaming fallback of the config overload of runSweepChecked(). */
TraceFactory atumTraceFactory(const trace::AtumLikeConfig &cfg);

/**
 * A TraceFactory that opens @p path once per job, with the format
 * (din / bin / ftr) detected from extension or magic. @p policy
 * governs damaged-record handling; under ErrorMode::Skip every job
 * sees the identical post-skip stream, so sweep results stay
 * deterministic even over a damaged trace.
 */
TraceFactory fileTraceFactory(const std::string &path,
                              ErrorPolicy policy = ErrorPolicy());

/**
 * Run independent @p jobs on @p threads workers (0 = all hardware
 * threads; never more workers than jobs). Each worker takes the
 * next index from one shared cursor, runs that job and ticks
 * @p progress (may be null). With one worker the jobs run inline on
 * the calling thread, in vector order; otherwise completion order
 * is unspecified. Each job must write only its own pre-allocated
 * slot. The first exception a job throws is rethrown once every job
 * has run.
 */
void runJobs(std::vector<std::function<void()>> jobs, unsigned threads,
             ProgressMeter *progress = nullptr);

/**
 * Fault-isolated sweep: run every spec in @p specs against its own
 * trace from @p make_trace, one runJobs() job per spec. Each slot
 * records its own JobResult instead of the first exception
 * aborting the whole run. Per job: bounded deterministic retry
 * (opts.max_retries, transient Io errors and timeouts only),
 * wall-time measurement, optional journal checkpointing and resume,
 * and cooperative cancellation.
 *
 * Every Ok slot is bit-identical to what a plain sim::runTrace()
 * loop produces — isolation only wraps the job boundary, it never
 * alters the simulation.
 *
 * Throws ErrorException only for caller mistakes (unreadable resume
 * journal, spec-hash mismatch, unwritable journal path); job
 * failures are reported in the result, never thrown.
 */
SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const TraceFactory &make_trace,
                const SweepOptions &opts = {});

/**
 * runSweepChecked() over the synthesized trace @p trace_cfg, built
 * once for the whole sweep when that saves work. After the journal
 * restore, when at least two jobs are left to run, the trace's
 * AtumLikeGenerator::totalRefs() * sizeof(MemRef) bytes are charged
 * to the sweep-global budget (opts.mem_budget; never to a job
 * budget) and held until the sweep returns; the trace is then
 * synthesized once into an immutable buffer and each job replays
 * it through a trace::VectorTraceSource cursor. When fewer than two
 * jobs remain, or the budget (or the allocator) refuses the buffer,
 * each job streams its own generator, exactly as with
 * atumTraceFactory(@p trace_cfg). Outputs are identical either way.
 */
SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &trace_cfg,
                const SweepOptions &opts = {});

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_SWEEP_H
