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
 * cursor (generate once, replay many). The segments of the trace
 * share no state, so the buffer is filled one segment per job on
 * the sweep's own workers. Given a trace file's path, it decodes a
 * clean .ftr file once into such a buffer, one run of frames per job
 * on the same workers, and streams anything else. Every job replays
 * the same stream either way, so the outputs are identical. Over
 * that buffer, each level one that two or more decoupled jobs share
 * is then simulated once, and those jobs replay only its level-two
 * requests.
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
    static constexpr std::uint64_t checkpoint_every = 4096;
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
 * Synthesize @p cfg's whole stream into one buffer of
 * AtumLikeGenerator::totalRefs() records, allocated once and never
 * zeroed. Each segment's slice, plus the flush marker after it, is
 * one runJobs() job on @p threads workers (0 = all hardware threads,
 * 1 = inline, in order), written first by its own generator through
 * AtumLikeGenerator::emitSegment(). The buffer equals
 * trace::materialize() of one serial generator record for record,
 * at any @p threads. @p part_starts, when given, receives where each
 * part of the trace starts: 0, then the position after each flush
 * marker between segments, as the fill jobs write them. Throws
 * ErrorException for a config validateConfig() rejects, and
 * std::bad_alloc when the buffer (or a job's generator) cannot be
 * allocated.
 */
trace::VectorTraceSource::Buffer
synthesizeAtumTrace(const trace::AtumLikeConfig &cfg, unsigned threads,
                    std::vector<std::size_t> *part_starts = nullptr);

/**
 * A TraceFactory that opens @p path once per job, with the format
 * (din / ftr) detected from extension or magic. @p policy
 * governs damaged-record handling; under ErrorMode::Skip every job
 * sees the identical post-skip stream, so sweep results stay
 * deterministic even over a damaged trace. The streaming fallback
 * of the path overload of runSweepChecked().
 */
TraceFactory fileTraceFactory(const std::string &path,
                              ErrorPolicy policy = ErrorPolicy());

/**
 * Decode the .ftr file @p path whole into one buffer of its header's
 * record total, allocated once and never zeroed, when the file is
 * clean and fully indexed (the rule runSweepChecked() over a path
 * applies); null otherwise. Each run of indexed frames is one
 * runJobs() job on @p threads workers, reading through a
 * trace::FtrFrameReader of its own, so every frame passes the
 * streaming reader's checks and decodes straight into its slice. The
 * buffer then equals trace::materialize() of a trace::FtrTraceSource
 * record for record, at any @p threads. @p part_starts, when given,
 * receives where the level-one filter may cut the trace: 0, then the
 * position after each flush marker (as the decode jobs find them)
 * that closes a part of at least 64K references. Throws
 * std::bad_alloc when the buffer cannot be allocated.
 */
trace::VectorTraceSource::Buffer
decodeFtrTrace(const std::string &path, unsigned threads,
               std::vector<std::size_t> *part_starts = nullptr);

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
 * synthesized once into an immutable buffer, one segment per job on
 * the sweep's opts.jobs workers (synthesizeAtumTrace()), and each
 * job replays it through a trace::VectorTraceSource cursor. When
 * fewer than two jobs remain, or the budget (or the allocator)
 * refuses the buffer, each job streams its own generator, exactly
 * as with atumTraceFactory(@p trace_cfg). Outputs are identical
 * either way. With opts.progress, a verbose meter prints one stderr
 * line for the shared trace: its records, bytes, fill workers and
 * wall milliseconds.
 *
 * Over the shared buffer, the jobs left to run whose level one is
 * sim::levelOneDecoupled() are grouped by level-one geometry. Each
 * group of two or more is filtered once, on the same workers, into
 * an immutable mem::L2RequestStream: one job per level one and part
 * of the trace, cut where a level one is cold again, just after a
 * flush marker (here, one part per segment). Its jobs replay the
 * stream through sim::runTrace's filtered replay
 * (JobResult::filtered). Each stream chunk is charged to the
 * sweep-global budget before it is allocated and held until the
 * sweep returns; under a limit the room the largest concurrent job
 * hierarchies need stays reserved while the streams are filtered. A
 * refused chunk or a std::bad_alloc leaves that group's jobs in
 * lockstep over the shared trace, with identical outputs. A second
 * verbose stderr line gives the streams' level ones, jobs, requests,
 * bytes and wall milliseconds.
 */
SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &trace_cfg,
                const SweepOptions &opts = {});

/**
 * runSweepChecked() over the trace file @p path, read once for the
 * whole sweep when that is safe. The file is decoded once into an
 * immutable buffer (decodeFtrTrace()), which the jobs and the level
 * ones share exactly as in the config overload, when all of these
 * hold:
 *
 *  - at least two jobs are left after the journal restore, and the
 *    sweep's token has not tripped;
 *  - the file is .ftr (trace::detectTraceFormat()), its CRC-checked
 *    header and footer read cleanly (no index rebuilt by a scan),
 *    and its record total is not zero;
 *  - the indexed frames tile the file and the stream exactly: the
 *    first starts at record 0 right after the file header, each
 *    starts where the previous one ended in the file and in the
 *    stream, and the last ends at the footer and at the total;
 *  - the sweep-global budget accepts total * sizeof(MemRef) bytes,
 *    charged before anything is allocated and held until the sweep
 *    returns;
 *  - every frame passes the streaming reader's checks (header,
 *    payload CRC, exact decode), the allocator provides the buffer,
 *    and the token does not trip between frames.
 *
 * Over the buffer, the level ones are filtered as in the config
 * overload, cut at the part starts decodeFtrTrace() reports.
 *
 * Otherwise every job streams its own reader, exactly as with
 * fileTraceFactory(@p path, @p policy): a damaged or unindexed
 * .ftr, a .din, or a budget below the buffer give the same outputs,
 * skipped records and errors as that factory. Over a clean file
 * both paths replay the identical stream, so the outputs are
 * identical. A clean multi-gigabyte file swept without a budget is
 * held whole in memory; pass opts.mem_budget to bound it.
 */
SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const std::string &path, ErrorPolicy policy,
                const SweepOptions &opts = {});

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_SWEEP_H
