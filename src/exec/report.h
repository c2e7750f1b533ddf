/**
 * @file
 * Sweep result sinks: a thread-safe progress meter (completed-job
 * counter with optional stderr lines) and a JSON results writer so
 * sweeps can emit machine-readable output alongside the paper-style
 * tables.
 */

#ifndef ASSOC_EXEC_REPORT_H
#define ASSOC_EXEC_REPORT_H

#include <atomic>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "exec/job_result.h"
#include "sim/runner.h"

namespace assoc {
namespace exec {

/**
 * Counts completed jobs across worker threads. When verbose,
 * prints one "label: k/N" line to stderr per completion; progress
 * goes to stderr only, so stdout stays byte-identical whether or
 * not it is enabled.
 */
class ProgressMeter
{
  public:
    /**
     * @param total   jobs expected (for the "k/N" rendering)
     * @param verbose emit stderr lines on every tick
     * @param label   prefix for the stderr lines
     */
    explicit ProgressMeter(std::size_t total, bool verbose = false,
                           std::string label = "sweep");

    /** Record one finished job (thread-safe). */
    void tick();

    /** When verbose, print one "label: @p text" line to stderr
     *  (thread-safe). */
    void note(const std::string &text);

    /** Jobs recorded so far. */
    std::size_t completed() const
    {
        return done_.load(std::memory_order_relaxed);
    }

    std::size_t total() const { return total_; }

  private:
    std::atomic<std::size_t> done_{0};
    std::size_t total_;
    bool verbose_;
    std::string label_;
    std::mutex io_mutex_;
};

/** Escape @p s for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Write one sweep's results as JSON: an object with a "runs" array,
 * one element per (spec, output) pair, carrying the hierarchy
 * names, miss-ratio statistics and per-scheme probe means. The two
 * vectors must be parallel.
 */
void writeSweepJson(std::ostream &os,
                    const std::vector<sim::RunSpec> &specs,
                    const std::vector<sim::RunOutput> &outs);

/**
 * Checked-sweep variant: every run additionally carries "status"
 * ("ok" / "failed" / "cancelled" / "timed-out" / "over-budget") and
 * "attempts"; runs without results carry an "error" object ({code,
 * message, context}) instead of statistics — these are the "gap
 * rows" a deadline leaves behind. The trailing summary records the
 * failure / cancellation / timeout / budget counts, the number of
 * watchdog stall reports, and whether the sweep was interrupted.
 */
void writeSweepJson(std::ostream &os,
                    const std::vector<sim::RunSpec> &specs,
                    const SweepResult &result);

/**
 * File variants of the two writeSweepJson forms, written atomically
 * (temp file + fsync + rename, util/atomic_file.h): a process
 * killed mid-write never leaves a torn JSON under the final name.
 * @p path "-" streams to stdout instead (nothing to tear).
 */
Expected<void>
writeSweepJsonFile(const std::string &path,
                   const std::vector<sim::RunSpec> &specs,
                   const std::vector<sim::RunOutput> &outs);

Expected<void> writeSweepJsonFile(const std::string &path,
                                  const std::vector<sim::RunSpec> &specs,
                                  const SweepResult &result);

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_REPORT_H
