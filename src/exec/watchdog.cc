#include "exec/watchdog.h"

#include <algorithm>

#include "util/fnv.h"
#include "util/logging.h"

namespace assoc {
namespace exec {

Watchdog::Watchdog(const Options &opts) : opts_(opts)
{
    thread_ = std::thread(&Watchdog::samplerLoop, this);
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
Watchdog::arm(std::size_t job, CancelToken *token, Deadline deadline,
              std::uint64_t spec_hash, std::string phase,
              const MemBudget *budget)
{
    Watch w;
    w.job = job;
    w.token = token;
    w.deadline = deadline;
    w.spec_hash = spec_hash;
    w.phase = std::move(phase);
    w.budget = budget;
    w.started = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    watches_.push_back(std::move(w));
}

void
Watchdog::disarm(std::size_t job)
{
    std::lock_guard<std::mutex> lock(mutex_);
    watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                  [job](const Watch &w) {
                                      return w.job == job;
                                  }),
                   watches_.end());
}

std::vector<StallReport>
Watchdog::reports() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
}

std::size_t
Watchdog::armedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return watches_.size();
}

StallReport
Watchdog::describe(const Watch &w, unsigned misses) const
{
    StallReport r;
    r.job = w.job;
    r.spec_hash = w.spec_hash;
    r.phase = w.phase;
    r.elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - w.started)
            .count());
    r.heartbeats = w.token ? w.token->heartbeats() : 0;
    r.bytes_charged = w.budget ? w.budget->used() : 0;
    r.misses = misses;
    return r;
}

void
Watchdog::scan()
{
    auto now = std::chrono::steady_clock::now();
    std::vector<StallReport> fresh;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Watch &w : watches_) {
            if (w.misses == 0) {
                if (w.deadline.isNever() || now < w.deadline.expiry())
                    continue;
                // ARMED -> CANCELLED: trip the token; a cooperative
                // job unwinds at its next checkpoint, a wedged one
                // at least releases anything polling the token.
                if (w.token)
                    w.token->cancelTimeout();
                w.misses = 1;
                w.cancelled_at = now;
                fresh.push_back(describe(w, 1));
            } else if (w.misses == 1) {
                if (now - w.cancelled_at <
                    std::chrono::nanoseconds(opts_.grace_ns))
                    continue;
                // CANCELLED -> ESCALATED: the job ignored the trip
                // for a whole grace period. Report it as wedged; its
                // worker is deliberately left running so well-behaved
                // siblings still drain.
                w.misses = 2;
                fresh.push_back(describe(w, 2));
            }
        }
        for (const StallReport &r : fresh)
            reports_.push_back(r);
    }
    if (!opts_.log) {
        return;
    }
    for (const StallReport &r : fresh) {
        warn("watchdog: job " + std::to_string(r.job) + " (spec " +
             hex16(r.spec_hash) + ", " + r.phase + ") " +
             (r.misses >= 2 ? "still wedged after cancellation"
                            : "past its deadline; cancelling") +
             ": elapsed " + formatDuration(r.elapsed_ns) + ", " +
             std::to_string(r.heartbeats) + " checkpoints, " +
             formatBytes(r.bytes_charged) + " charged");
    }
}

void
Watchdog::samplerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        lock.unlock();
        scan();
        lock.lock();
        if (stopping_)
            break;
        cv_.wait_for(lock, std::chrono::nanoseconds(opts_.sample_ns));
    }
}

} // namespace exec
} // namespace assoc
