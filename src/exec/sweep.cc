#include "exec/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <system_error>
#include <thread>

#include "exec/fault.h"
#include "exec/journal.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace assoc {
namespace exec {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::Cancelled: return "cancelled";
      case JobStatus::TimedOut: return "timed-out";
      case JobStatus::OverBudget: return "over-budget";
    }
    return "unknown";
}

TraceFactory
atumTraceFactory(const trace::AtumLikeConfig &cfg)
{
    return [cfg](std::size_t) {
        return std::make_unique<trace::AtumLikeGenerator>(cfg);
    };
}

TraceFactory
fileTraceFactory(const std::string &path, ErrorPolicy policy)
{
    // Each job opens its own reader: jobs run on worker threads, and
    // TraceSource instances are single-threaded by contract. Open
    // failures surface through the source's sticky error when the
    // job first streams it, which routes through the normal
    // per-job retry/failure machinery.
    return [path, policy](std::size_t) {
        return trace::openTraceFile(path, policy);
    };
}

namespace {

/** The workers runJobs() starts for @p jobs jobs at @p threads. */
unsigned
workerCount(unsigned threads, std::size_t jobs)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(threads, jobs));
}

} // namespace

void
runJobs(std::vector<std::function<void()>> jobs, unsigned threads,
        ProgressMeter *progress)
{
    threads = workerCount(threads, jobs.size());

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex
    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            try {
                jobs[i]();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
            if (progress)
                progress->tick();
        }
    };

    // Reserved up front: once a worker runs, only the thread
    // constructor below may throw, and its failure is handled.
    std::vector<std::thread> workers;
    workers.reserve(threads);
    try {
        while (threads > 1 && workers.size() < threads)
            workers.emplace_back(work);
    } catch (const std::system_error &e) {
        // Out of threads: whoever did start drains the cursor.
        warn("runJobs: started " + std::to_string(workers.size()) +
             " of " + std::to_string(threads) + " workers: " +
             e.what());
    }
    if (workers.empty())
        work(); // one worker: inline, in order, on this thread
    for (std::thread &w : workers)
        w.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

trace::VectorTraceSource::Buffer
synthesizeAtumTrace(const trace::AtumLikeConfig &cfg, unsigned threads)
{
    const std::uint64_t total = trace::AtumLikeGenerator(cfg).totalRefs();
    // Below this bound the total neither wraps nor passes max_size(),
    // so every slice lies inside the buffer.
    if (cfg.refs_per_segment >=
        std::vector<trace::MemRef>().max_size() / cfg.segments)
        throw std::bad_alloc();
    auto refs = std::make_shared<std::vector<trace::MemRef>>(
        static_cast<std::size_t>(total));
    // Segment k starts after k segments and their flush markers.
    const std::size_t stride = static_cast<std::size_t>(
        cfg.refs_per_segment + (cfg.flush_between_segments ? 1 : 0));
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cfg.segments);
    for (unsigned k = 0; k < cfg.segments; ++k)
        jobs.push_back([&cfg, &refs, stride, k] {
            trace::MemRef *out = refs->data() + k * stride;
            trace::AtumLikeGenerator(cfg).emitSegment(k, out);
            if (cfg.flush_between_segments && k + 1 < cfg.segments)
                out[cfg.refs_per_segment] = trace::MemRef::flush();
        });
    runJobs(std::move(jobs), threads);
    return refs;
}

namespace {

/** Map any exception from one attempt onto an Error. */
Error
errorFromAttempt()
{
    try {
        throw;
    } catch (const ErrorException &e) {
        return e.error();
    } catch (const PanicError &e) {
        return Error::internal(e.what());
    } catch (const FatalError &e) {
        return Error::usage(e.what());
    } catch (const std::exception &e) {
        return Error::internal(e.what());
    } catch (...) {
        return Error::internal("unknown exception");
    }
}

/** Shared runaway-defense state for one checked sweep. */
struct SweepGuards
{
    /** Sweep-wide token: chains to the caller's (SIGINT, explicit
     *  cancel) and carries the sweep deadline. Null when the sweep
     *  has no cancellation sources at all. */
    const CancelToken *cancel = nullptr;
    /** Global budget (null when no budget flags were given). */
    MemBudget *budget = nullptr;
    /** Deadline enforcement (null when no deadline flags). */
    Watchdog *watchdog = nullptr;
};

/** Classify a failed attempt's error into a slot status. */
JobStatus
statusFromError(const Error &e)
{
    switch (e.code()) {
      case ErrorCode::Cancelled: return JobStatus::Cancelled;
      case ErrorCode::Timeout: return JobStatus::TimedOut;
      case ErrorCode::Budget: return JobStatus::OverBudget;
      default: return JobStatus::Failed;
    }
}

/** Run one slot with retry, timing, deadline and fault hooks. */
JobResult
runOneJob(const std::vector<sim::RunSpec> &specs,
          const TraceFactory &make_trace, const SweepOptions &opts,
          const SweepGuards &guards, std::size_t i)
{
    JobResult res;
    const std::uint64_t spec_hash = hashSpec(specs[i]);
    unsigned attempts_allowed = 1 + opts.max_retries;
    for (unsigned attempt = 1; attempt <= attempts_allowed; ++attempt) {
        if (guards.cancel && guards.cancel->cancelled()) {
            // The sweep as a whole is over: deadline (TimedOut) or
            // cancellation (Cancelled). Keep an earlier attempt's
            // Failed status — it is more informative than "never
            // retried".
            if (res.status != JobStatus::Failed) {
                bool timed = guards.cancel->reason() ==
                             CancelToken::Reason::TimedOut;
                res.status = timed ? JobStatus::TimedOut
                                   : JobStatus::Cancelled;
                Error e = timed
                              ? Error::timeout(
                                    "sweep deadline exceeded before "
                                    "job " + std::to_string(i) +
                                    " attempt " +
                                    std::to_string(attempt))
                              : Error::cancelled(
                                    "job " + std::to_string(i) +
                                    " cancelled before attempt " +
                                    std::to_string(attempt));
                if (timed)
                    e.withContext("job spec hash " +
                                  hex16(spec_hash));
                res.error = std::move(e);
            }
            return res;
        }

        // Per-attempt token: the job deadline, chained to the
        // sweep-wide token. Fresh each attempt so a retried timeout
        // gets a full timeslice again.
        CancelToken token;
        token.setParent(guards.cancel);
        if (opts.job_timeout_ns != 0)
            token.setDeadline(Deadline::after(opts.job_timeout_ns));
        MemBudget job_budget(opts.job_mem_budget, guards.budget);
        MemBudget *budget =
            (opts.job_mem_budget != 0 || guards.budget)
                ? &job_budget
                : nullptr;
        sim::RunSpec spec = specs[i];
        spec.cancel = &token;
        spec.checkpoint_every = opts.checkpoint_every;
        spec.budget = budget;

        if (guards.watchdog)
            guards.watchdog->arm(i, &token, token.deadline(),
                                 spec_hash,
                                 "attempt " + std::to_string(attempt),
                                 budget);

        res.attempts = attempt;
        auto t0 = std::chrono::steady_clock::now();
        try {
            if (opts.inject)
                opts.inject->onJobStart(i, attempt);
            std::unique_ptr<trace::TraceSource> src = make_trace(i);
            src->setCancelToken(&token);
            if (budget)
                src->setMemBudget(budget);
            if (opts.inject)
                src = opts.inject->wrapJobTrace(std::move(src), i,
                                                &token, budget);
            res.output = sim::runTrace(*src, spec);
            res.status = JobStatus::Ok;
            res.error = Error();
        } catch (...) {
            Error e = errorFromAttempt().withContext(
                "job " + std::to_string(i) + " attempt " +
                std::to_string(attempt));
            res.status = statusFromError(e);
            if (res.status == JobStatus::TimedOut ||
                res.status == JobStatus::OverBudget)
                e.withContext("job spec hash " + hex16(spec_hash));
            res.error = std::move(e);
        }
        if (guards.watchdog)
            guards.watchdog->disarm(i);
        auto t1 = std::chrono::steady_clock::now();
        res.wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        if (res.ok())
            break;
        if (res.status == JobStatus::Cancelled)
            break; // the sweep is being torn down; don't re-run
        if (res.status == JobStatus::OverBudget)
            break; // deterministic: the same spec blows the same budget
        if (res.status == JobStatus::TimedOut)
            continue; // retryable under max_retries (load may clear)
        if (!res.error.transient())
            break;
    }
    if (opts.inject)
        opts.inject->onJobDone(i);
    return res;
}

/** A synthesized trace held in memory for a whole sweep. */
struct SharedTrace
{
    /** Cursors over the buffer (empty = each job streams). */
    TraceFactory factory;
    std::uint64_t bytes = 0;
    /** The buffer's charge on the sweep-global budget. */
    MemCharge charge;
};

/**
 * Synthesize @p cfg's stream once into an immutable buffer, charged
 * to @p budget (the sweep-global one; null = no accounting) before
 * anything is allocated, and filled by synthesizeAtumTrace() on
 * @p threads workers. An empty factory means "stream instead": the
 * generator rejects the config (each job then fails with the same
 * error, exactly as when streaming), or the budget or the allocator
 * refuses the buffer (a trace that is not addressable included).
 */
SharedTrace
shareAtumTrace(const trace::AtumLikeConfig &cfg, MemBudget *budget,
               unsigned threads)
{
    SharedTrace shared;
    try {
        const std::uint64_t bytes = trace::AtumLikeGenerator(cfg).totalRefs() *
                                    sizeof(trace::MemRef);
        Expected<MemCharge> charge =
            MemCharge::charge(budget, bytes, "shared trace");
        if (!charge.ok())
            return shared;
        trace::VectorTraceSource::Buffer refs =
            synthesizeAtumTrace(cfg, threads);
        shared.factory = [refs](std::size_t) {
            return std::make_unique<trace::VectorTraceSource>(refs);
        };
        shared.bytes = bytes;
        shared.charge = charge.take();
    } catch (const FatalError &) {
        // The generator's config check (an ErrorException) or one of
        // its process models' checks failed.
    } catch (const std::bad_alloc &) {
    }
    return shared;
}

/**
 * The checked sweep. With @p shareable (the config @p make_trace
 * streams), a sweep with at least two jobs left to run replays one
 * shared synthesis instead; see runSweepChecked() in sweep.h.
 */
SweepResult
runChecked(const std::vector<sim::RunSpec> &specs,
           const TraceFactory &make_trace,
           const trace::AtumLikeConfig *shareable,
           const SweepOptions &opts)
{
    SweepResult result;
    result.jobs.resize(specs.size());

    // Sweep-wide runaway defenses. The sweep token carries the
    // whole-sweep deadline and chains to the caller's token (SIGINT,
    // explicit cancel); per-job tokens chain to it in runOneJob.
    SweepGuards guards;
    CancelToken sweep_token;
    if (opts.cancel || opts.sweep_deadline_ns != 0) {
        sweep_token.setParent(opts.cancel);
        if (opts.sweep_deadline_ns != 0)
            sweep_token.setDeadline(
                Deadline::after(opts.sweep_deadline_ns));
        guards.cancel = &sweep_token;
    }
    MemBudget global_budget(opts.mem_budget);
    if (opts.mem_budget != 0 || opts.job_mem_budget != 0)
        guards.budget = &global_budget;

    // Restore finished slots from the resume journal, if any.
    std::vector<bool> have(specs.size(), false);
    if (!opts.resume_path.empty()) {
        Expected<JournalData> data =
            readJournal(opts.resume_path, guards.budget);
        if (!data)
            throwError(Error(data.error())
                           .withContext("resuming sweep from '" +
                                        opts.resume_path + "'"));
        if (data.value().spec_hash != opts.spec_hash)
            throwError(Error::data(
                "journal '" + opts.resume_path +
                "' was written for a different sweep (spec hash " +
                std::to_string(data.value().spec_hash) + " vs " +
                std::to_string(opts.spec_hash) + ")"));
        for (auto &[idx, out] : data.value().entries) {
            if (idx >= specs.size())
                continue; // stale entry from a larger sweep shape
            JobResult &slot = result.jobs[idx];
            slot.status = JobStatus::Ok;
            slot.output = std::move(out);
            slot.from_journal = true;
            slot.attempts = 0;
            have[idx] = true;
            ++result.resumed;
        }
    }

    // Generate once, replay many. The buffer is held until the sweep
    // returns and charged to the sweep-global budget only: no job
    // budget pays for it. Declared after global_budget, so released
    // before it.
    SharedTrace shared;
    const std::size_t remaining = static_cast<std::size_t>(
        std::count(have.begin(), have.end(), false));
    if (shareable && remaining >= 2 &&
        !(guards.cancel && guards.cancel->cancelled())) {
        const auto t0 = std::chrono::steady_clock::now();
        shared = shareAtumTrace(*shareable, guards.budget, opts.jobs);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (shared.factory && opts.progress)
            opts.progress->note(
                "shared trace: " +
                std::to_string(shared.bytes / sizeof(trace::MemRef)) +
                " records, " + std::to_string(shared.bytes) +
                " bytes, " +
                std::to_string(
                    workerCount(opts.jobs, shareable->segments)) +
                " fill workers, " + std::to_string(ms) + " ms");
    }
    const TraceFactory &jobs_trace =
        shared.factory ? shared.factory : make_trace;
    result.shared_trace_bytes = shared.bytes;

    // Open the journal we append new completions to. When both
    // --journal and --resume are given, the fresh journal also
    // receives the restored slots, producing a compacted, complete
    // checkpoint.
    JournalWriter writer;
    std::mutex journal_mutex;
    const std::string &sink = !opts.journal_path.empty()
                                  ? opts.journal_path
                                  : opts.resume_path;
    if (!sink.empty()) {
        bool append = opts.journal_path.empty();
        Error e = writer.open(sink, opts.spec_hash, specs.size(),
                              append);
        if (e.failed())
            throwError(std::move(e));
        if (!opts.journal_path.empty()) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (!have[i])
                    continue;
                Error ae = writer.append(i, result.jobs[i].output);
                if (ae.failed())
                    throwError(std::move(ae));
            }
        }
    }

    // Deadline enforcement. Scoped so the watchdog thread is joined
    // before the journal drain below: once jobs are done, nothing
    // can trip tokens or log stall lines concurrently with the
    // final flush.
    {
        std::unique_ptr<Watchdog> watchdog;
        if (opts.job_timeout_ns != 0 || opts.sweep_deadline_ns != 0) {
            watchdog = std::make_unique<Watchdog>(opts.watchdog);
            guards.watchdog = watchdog.get();
        }

        std::vector<std::function<void()>> jobs;
        jobs.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (have[i]) {
                if (opts.progress)
                    opts.progress->tick();
                continue;
            }
            jobs.push_back([&specs, &jobs_trace, &opts, &guards,
                            &result, &writer, &journal_mutex, i] {
                JobResult r = runOneJob(specs, jobs_trace, opts,
                                        guards, i);
                if (r.ok() && writer.isOpen()) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    Error e = writer.append(i, r.output);
                    if (e.failed())
                        warn(e.text()); // the result itself is good
                }
                result.jobs[i] = std::move(r);
            });
        }

        // Jobs never throw (every attempt's exception is folded into
        // the slot), so runJobs' first-exception rethrow stays
        // dormant.
        runJobs(std::move(jobs), opts.jobs, opts.progress);

        if (watchdog)
            result.stalls = watchdog->reports();
    }

    // Drain: final flush + close under the journal mutex. A SIGINT
    // (or watchdog grace-period escalation) that lands while workers
    // are still appending cannot race this — appends hold the same
    // mutex, and the workers and the watchdog are joined by now.
    if (writer.isOpen()) {
        std::lock_guard<std::mutex> lock(journal_mutex);
        Error e = writer.close();
        if (e.failed())
            warn(e.text());
    }

    for (const JobResult &j : result.jobs)
        if (j.status == JobStatus::Cancelled)
            result.interrupted = true;
    return result;
}

} // namespace

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const TraceFactory &make_trace, const SweepOptions &opts)
{
    return runChecked(specs, make_trace, nullptr, opts);
}

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &trace_cfg,
                const SweepOptions &opts)
{
    return runChecked(specs, atumTraceFactory(trace_cfg), &trace_cfg,
                      opts);
}

} // namespace exec
} // namespace assoc
