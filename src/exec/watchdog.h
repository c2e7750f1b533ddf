/**
 * @file
 * Deadline enforcement for sweep jobs: a sampler thread that cancels
 * a job's token once the job runs past its deadline, and reports
 * the stall (exec::runSweepChecked() arms one per timed sweep).
 */

#ifndef ASSOC_EXEC_WATCHDOG_H
#define ASSOC_EXEC_WATCHDOG_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace assoc {
namespace exec {

/** One watchdog observation of a job past its deadline. */
struct StallReport
{
    std::size_t job = 0;          ///< sweep slot index
    std::uint64_t spec_hash = 0;  ///< identity of the stalled spec
    std::string phase;            ///< what the job was doing
    std::uint64_t elapsed_ns = 0; ///< run time when observed
    std::uint64_t heartbeats = 0; ///< checkpoints the job had taken
    std::uint64_t bytes_charged = 0; ///< its MemBudget::used()
    unsigned misses = 1; ///< grace periods missed (2 = escalated)
};

/**
 * Background deadline enforcement for sweep jobs. Workers arm() a
 * watch as a job starts (its cancel token, absolute deadline and
 * identity) and disarm() it when the job ends, however it ends. The
 * watchdog thread samples every armed watch on a fixed period; a
 * watch past its deadline gets its token cancelled (cancelTimeout())
 * and a stall report logged. The job itself is *not* killed — it is
 * expected to observe the token at its next checkpoint (or, if it
 * is stuck in non-checkpointing code, at least release waiters that
 * poll the token). A watch still armed one grace period after
 * cancellation is reported again and marked escalated; no worker is
 * ever torn down, so well-behaved siblings keep their results.
 *
 * State machine per watch:
 *   ARMED --deadline missed--> CANCELLED (token tripped, report)
 *   CANCELLED --grace missed--> ESCALATED (second report; job is
 *       presumed wedged, its slot will be reported TimedOut by the
 *       engine once — if ever — it returns)
 *   any state --disarm()--> gone
 */
class Watchdog
{
  public:
    struct Options
    {
        /** Sampling period between deadline scans, nanoseconds. */
        std::uint64_t sample_ns = 1000 * 1000;
        /** Grace period after cancellation before a watch is
         *  declared wedged and escalated, nanoseconds. */
        std::uint64_t grace_ns = 250ull * 1000 * 1000;
        /** Log stall reports via util/logging warn() lines. */
        bool log = true;
    };

    Watchdog() : Watchdog(Options()) {}
    explicit Watchdog(const Options &opts);

    /** Stops and joins the sampler thread (no tokens are tripped). */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Start watching job @p job. @p token is cancelled when
     * @p deadline passes (never-deadline watches are heartbeat-only
     * and cannot stall). @p budget may be null.
     */
    void arm(std::size_t job, CancelToken *token, Deadline deadline,
             std::uint64_t spec_hash, std::string phase,
             const MemBudget *budget);

    /** Stop watching job @p job (idempotent). */
    void disarm(std::size_t job);

    /** Stall reports collected so far (snapshot; thread-safe). */
    std::vector<StallReport> reports() const;

    /** Watches currently armed (tests). */
    std::size_t armedCount() const;

  private:
    struct Watch
    {
        std::size_t job = 0;
        CancelToken *token = nullptr;
        Deadline deadline;
        std::uint64_t spec_hash = 0;
        std::string phase;
        const MemBudget *budget = nullptr;
        std::chrono::steady_clock::time_point started;
        /** When the token was timeout-cancelled (grace anchor). */
        std::chrono::steady_clock::time_point cancelled_at;
        unsigned misses = 0; ///< 0 armed, 1 cancelled, 2 escalated
    };

    void samplerLoop();
    void scan();
    StallReport describe(const Watch &w, unsigned misses) const;

    Options opts_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Watch> watches_;      ///< guarded by mutex_
    std::vector<StallReport> reports_; ///< guarded by mutex_
    bool stopping_ = false;            ///< guarded by mutex_
    std::thread thread_;
};

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_WATCHDOG_H
