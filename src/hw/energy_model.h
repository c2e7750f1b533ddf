/**
 * @file
 * Per-probe energy model: the cost axis the 1989 paper could not
 * measure, added by the way-memoization line of work (Ishihara &
 * Fallah, PAPERS.md). Where impl_model.h prices a scheme's probes
 * in nanoseconds, this module prices the *events* underneath them
 * (core::ProbeEvents) in nanojoules:
 *
 *   - a full t-bit tag-array read vs a k-bit partial-field read,
 *   - a full-width tag compare,
 *   - an MRU-list read,
 *   - a memo/prediction-table access,
 *   - a data-array way read,
 *   - a miss fill from the next level.
 *
 * The data array is modeled as phased (tag resolution first, then
 * exactly one data-way read per hit; write-backs write one way),
 * the standard level-two organization — so the energy differences
 * between schemes come entirely from their tag-path events.
 *
 * energyDelay() composes the resulting energy per level-two request
 * with effective.h's delay into the energy·delay product per
 * request, the figure of merit bench_energy tabulates across the
 * scheme zoo (docs/ENERGY.md).
 */

#ifndef ASSOC_HW_ENERGY_MODEL_H
#define ASSOC_HW_ENERGY_MODEL_H

#include <cstdint>

#include "hw/effective.h"

namespace assoc {
namespace hw {

/** Per-event energies, nJ. */
struct EnergySpec
{
    double tag_read_nj = 0.0;    ///< one full t-bit tag-array read
    double field_read_nj = 0.0;  ///< one k-bit partial-field read
    double tag_compare_nj = 0.0; ///< one full-width tag compare
    double list_read_nj = 0.0;   ///< one MRU-list read
    double memo_access_nj = 0.0; ///< one memo-table read or write
    double data_read_nj = 0.0;   ///< one data-array way read/write
    double miss_nj = 0.0;        ///< one fill from the next level

    /** Representative on-chip SRAM numbers (relative magnitudes are
     *  what matter: a data way costs several tag reads, a memo
     *  access a fraction of one, a miss dwarfs everything). */
    static EnergySpec defaultSram();
};

/**
 * One run's event totals for one scheme, mirroring
 * core::ProbeStats: events from the meter's event totals, the
 * access/hit counts from its accumulators. Kept as plain integers
 * so hw stays independent of the core layer.
 */
struct EnergyEvents
{
    std::uint64_t tag_reads = 0;
    std::uint64_t field_reads = 0;
    std::uint64_t tag_compares = 0;
    std::uint64_t list_reads = 0;
    std::uint64_t memo_reads = 0;
    std::uint64_t memo_writes = 0;

    std::uint64_t accesses = 0; ///< metered level-two accesses
    std::uint64_t hits = 0;     ///< data-way reads (phased array)
    std::uint64_t misses = 0;   ///< fills from the next level
};

/** Where the energy went, plus the per-access mean. */
struct EnergyBreakdown
{
    double tag_nj = 0.0;     ///< tag-array reads
    double field_nj = 0.0;   ///< partial-field reads
    double compare_nj = 0.0; ///< tag compares
    double list_nj = 0.0;    ///< MRU-list reads
    double memo_nj = 0.0;    ///< memo-table traffic
    double data_nj = 0.0;    ///< data-array reads
    double miss_nj = 0.0;    ///< miss fills

    double total_nj = 0.0;      ///< sum of the above
    double per_access_nj = 0.0; ///< total / accesses (0 when idle)
};

/** Price @p ev under @p spec. */
EnergyBreakdown energyOf(const EnergySpec &spec,
                         const EnergyEvents &ev);

/** Energy·delay per level-two request. */
struct EnergyDelay
{
    double energy_nj = 0.0; ///< mean energy per request
    double delay_ns = 0.0;  ///< mean delay per request
    double edp_nj_ns = 0.0; ///< their product
};

/**
 * Compose @p e's per-access energy with @p t's per-request delay
 * (effectiveAccess) into the energy·delay product.
 */
EnergyDelay energyDelay(const EnergyBreakdown &e,
                        const EffectiveResult &t);

} // namespace hw
} // namespace assoc

#endif // ASSOC_HW_ENERGY_MODEL_H
