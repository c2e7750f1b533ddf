/**
 * @file
 * One-call experiment runner: stream a trace through a two-level
 * hierarchy with any number of lookup schemes attached, and collect
 * every statistic the paper's evaluation reports.
 *
 * This is the library-level API the bench harnesses and examples
 * are built on; use it for custom sweeps:
 *
 * @code
 *   sim::RunSpec spec;
 *   spec.hier = {mem::CacheGeometry(16384, 16, 1),
 *                mem::CacheGeometry(262144, 32, 4), true};
 *   spec.schemes = {core::SchemeSpec::paperPartial(4)};
 *   trace::AtumLikeGenerator trace({});
 *   sim::RunOutput out = sim::runTrace(trace, spec);
 *   double probes = out.probes[0].totalMean();
 * @endcode
 */

#ifndef ASSOC_SIM_RUNNER_H
#define ASSOC_SIM_RUNNER_H

#include <memory>
#include <string>
#include <vector>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/coherency.h"
#include "mem/hierarchy.h"
#include "trace/trace_source.h"
#include "util/cancel.h"

namespace assoc {
namespace sim {

/** One simulation request: a hierarchy plus schemes to price. */
struct RunSpec
{
    /** Defaults to the paper's Figure 3 configuration. */
    mem::HierarchyConfig hier{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, 4),
                              true};
    /** Schemes to price (one ProbeMeter each). */
    std::vector<core::SchemeSpec> schemes;
    /** Model the write-back optimization (paper default). */
    bool wb_optimization = true;
    /** Also collect the MRU-distance distribution (Figure 5). */
    bool with_distances = false;
    /** Remote coherency-invalidation rate per reference (0 = a
     *  uniprocessor, the paper's setting). */
    double coherency_rate = 0.0;
    /** Sample level-two occupancy every this many references
     *  (0 = never). */
    std::uint64_t occupancy_sample_period = 0;
    /** Invariant auditor attached to every scheme's meter (not
     *  owned; see src/check). */
    core::LookupAuditor *auditor = nullptr;
    /** Additional observers attached to the hierarchy (not owned),
     *  e.g. the invariant checkers in src/check. */
    std::vector<mem::L2Observer *> extra_observers;

    /** References runTrace pulls per TraceSource::nextBatch call at
     *  most (see mem::TwoLevelHierarchy::replay). Fixed: results are
     *  bit-identical at every batch size. */
    static constexpr unsigned batch_size =
        mem::TwoLevelHierarchy::kReplayBatch;

    // --- runaway-work defenses (see util/cancel.h). None of these
    // --- influence results, so hashSpecs() ignores them.

    /** Cooperative cancel/deadline token, polled every
     *  checkpoint_every accesses (not owned; null = never stop). */
    const CancelToken *cancel = nullptr;
    /**
     * Accesses between cancellation checkpoints. A fixed cadence in
     * observed accesses (not wall time) keeps cancellation latency
     * bounded *and* deterministic: a cancel delivered before access
     * k is honored at the same checkpoint on every machine.
     */
    std::uint64_t checkpoint_every = 4096;
    /** Budget the hierarchy's plane allocations are charged to
     *  (not owned; null = no accounting). */
    MemBudget *budget = nullptr;
};

/** What one simulation produced. */
struct RunOutput
{
    mem::HierarchyStats stats;
    std::vector<std::string> names;       ///< parallel to schemes
    std::vector<core::ProbeStats> probes; ///< parallel to schemes
    std::vector<double> f; ///< f[1..a] when with_distances
    double mean_occupancy = 0.0; ///< when sampling was requested
    std::uint64_t coherency_invalidations = 0;
    /** Records the trace source skipped as damaged/malformed under
     *  ErrorMode::Skip — surfaced so damage is visible in sweep
     *  reports, never silent. */
    std::uint64_t skipped_records = 0;
};

/**
 * Stream @p src (reset first) through the hierarchy of @p spec with
 * one probe meter per scheme. References are pulled up to
 * RunSpec::batch_size at a time, but never past the next
 * cancellation checkpoint or occupancy sample, so both happen after
 * the same access at any cadence.
 */
RunOutput runTrace(trace::TraceSource &src, const RunSpec &spec);

/** The paper's notation for a cache, e.g. "16K-16". */
std::string cacheName(std::uint32_t bytes, std::uint32_t block);

/** One (L1, L2) configuration of the Table 4 sweep. */
struct Table4Config
{
    std::uint32_t l1_bytes, l1_block;
    std::uint32_t l2_bytes, l2_block;
};

/** The eight configurations of Table 4, in table order. */
const std::vector<Table4Config> &table4Configs();

} // namespace sim
} // namespace assoc

#endif // ASSOC_SIM_RUNNER_H
