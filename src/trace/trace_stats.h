/**
 * @file
 * Trace characterization: reference mix, footprint, per-process
 * breakdown. Used by `trace_pack stats`, by bench_table3, and by
 * tests that validate the synthetic workload against its
 * calibration targets.
 */

#ifndef ASSOC_TRACE_TRACE_STATS_H
#define ASSOC_TRACE_TRACE_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "trace/trace_source.h"

namespace assoc {
namespace trace {

/** Aggregate statistics over a trace. */
struct TraceStats
{
    std::uint64_t refs = 0;      ///< total non-flush references
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t flushes = 0;

    /** Distinct blocks touched, at @c block_bytes granularity. */
    std::uint64_t footprint_blocks = 0;
    unsigned block_bytes = 32;

    /** References per process id. */
    std::map<unsigned, std::uint64_t> per_pid;

    double readFraction() const;
    double writeFraction() const;
    double ifetchFraction() const;

    /** Footprint in bytes. */
    std::uint64_t footprintBytes() const;

    /** Pretty-print a summary. */
    void print(std::ostream &os) const;
};

/**
 * Collect statistics over all of @p src (consumes it from the start;
 * resets it first).
 * @param block_bytes footprint granularity (power of two).
 */
TraceStats collectStats(TraceSource &src, unsigned block_bytes = 32);

/**
 * Collect statistics per flush-delimited segment: one TraceStats
 * for each of the sub-traces a flush marker separates (the 23
 * concatenated ATUM pieces of the paper's Table 3). Flush markers
 * are counted in the *preceding* segment's flushes field.
 */
std::vector<TraceStats> collectSegmentStats(TraceSource &src,
                                            unsigned block_bytes = 32);

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_TRACE_STATS_H
