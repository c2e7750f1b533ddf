/**
 * @file
 * Per-job sweep results: one isolated outcome slot per spec.
 *
 * runSweepChecked() never lets one failing job poison the sweep —
 * every slot independently records either a RunOutput or the Error
 * that killed it, plus how many attempts were made and how long the
 * winning (or last) attempt ran.
 */

#ifndef ASSOC_EXEC_JOB_RESULT_H
#define ASSOC_EXEC_JOB_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "exec/watchdog.h"
#include "sim/runner.h"
#include "util/error.h"

namespace assoc {
namespace exec {

/** Terminal state of one sweep slot. */
enum class JobStatus {
    Ok,         ///< output is valid
    Failed,     ///< error describes the final attempt's failure
    Cancelled,  ///< never ran (SIGINT or explicit cancellation)
    TimedOut,   ///< killed by a job timeout or the sweep deadline
    OverBudget, ///< killed by a memory-budget exhaustion
};

/** "ok" / "failed" / "cancelled" / "timed-out" / "over-budget"
 *  (used in JSON and messages). */
const char *jobStatusName(JobStatus status);

/** Outcome of one sweep slot. */
struct JobResult
{
    JobStatus status = JobStatus::Cancelled;
    sim::RunOutput output; ///< valid only when status == Ok
    Error error;           ///< set when status != Ok
    unsigned attempts = 0; ///< runs tried (0 when cancelled unstarted)
    std::uint64_t wall_ns = 0; ///< wall time of the last attempt
    bool from_journal = false; ///< restored by --resume, not re-run
    /** Replayed its level one's shared request stream instead of
     *  running the level one (sim::runTrace's filtered replay). */
    bool filtered = false;

    bool ok() const { return status == JobStatus::Ok; }
};

/** Outcome of a whole checked sweep. */
struct SweepResult
{
    std::vector<JobResult> jobs; ///< parallel to the spec vector

    bool interrupted = false;   ///< a cancellation cut the sweep short
    std::uint64_t resumed = 0;  ///< slots restored from a journal
    /** Bytes of the one synthesized trace every job replayed from
     *  memory (0 = each job streamed its own). */
    std::uint64_t shared_trace_bytes = 0;
    /** Bytes of the level-one request streams filtered jobs
     *  replayed (0 = every job ran its level one). Not in the sweep
     *  JSON: it depends on the budget, not on the results. */
    std::uint64_t request_stream_bytes = 0;
    /** Watchdog observations (deadline misses and escalations). */
    std::vector<StallReport> stalls;

    bool
    allOk() const
    {
        for (const JobResult &j : jobs)
            if (!j.ok())
                return false;
        return true;
    }

    std::size_t
    failures() const
    {
        std::size_t n = 0;
        for (const JobResult &j : jobs)
            n += j.status == JobStatus::Failed;
        return n;
    }

    std::size_t
    cancelled() const
    {
        std::size_t n = 0;
        for (const JobResult &j : jobs)
            n += j.status == JobStatus::Cancelled;
        return n;
    }

    std::size_t
    timedOut() const
    {
        std::size_t n = 0;
        for (const JobResult &j : jobs)
            n += j.status == JobStatus::TimedOut;
        return n;
    }

    std::size_t
    overBudget() const
    {
        std::size_t n = 0;
        for (const JobResult &j : jobs)
            n += j.status == JobStatus::OverBudget;
        return n;
    }

    /** Jobs killed by a runaway-work policy (deadline or budget). */
    std::size_t
    resourceKilled() const
    {
        return timedOut() + overBudget();
    }

    /** First non-ok slot's error (ok Error when allOk()). */
    const Error &
    firstError() const
    {
        for (const JobResult &j : jobs)
            if (!j.ok())
                return j.error;
        static const Error ok;
        return ok;
    }
};

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_JOB_RESULT_H
