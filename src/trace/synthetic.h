/**
 * @file
 * Synthetic microworkload kernels: tiny, fully-predictable
 * reference streams for unit tests, calibration and controlled
 * experiments — the complement of the big ATUM-like workload.
 *
 *  - LoopTrace: cyclic sweep over a fixed working set; with the
 *    working set inside a cache level, everything after the first
 *    lap hits; one block past the capacity of an LRU set turns
 *    every access into a miss (the classic LRU pathology).
 *  - UniformRandomTrace: independent uniform block references over
 *    a region; hit ratios and MRU distances follow closed forms,
 *    which the meters are tested against.
 */

#ifndef ASSOC_TRACE_SYNTHETIC_H
#define ASSOC_TRACE_SYNTHETIC_H

#include <cstdint>

#include "trace/trace_source.h"
#include "util/rng.h"

namespace assoc {
namespace trace {

/** Cyclic sweep over a working set of @p blocks cache blocks. */
class LoopTrace : public TraceSource
{
  public:
    /**
     * @param base region start, @param block_bytes spacing between
     * touched blocks, @param blocks working-set size in blocks,
     * @param count total references.
     */
    LoopTrace(Addr base, std::uint32_t block_bytes,
              std::uint32_t blocks, std::uint64_t count);

    bool next(MemRef &ref) override;
    void reset() override;

  private:
    Addr base_;
    std::uint32_t block_bytes_;
    std::uint32_t blocks_;
    std::uint64_t count_;
    std::uint64_t pos_ = 0;
};

/** Independent uniform references over @p blocks cache blocks. */
class UniformRandomTrace : public TraceSource
{
  public:
    UniformRandomTrace(Addr base, std::uint32_t block_bytes,
                       std::uint32_t blocks, std::uint64_t count,
                       std::uint64_t seed = 1,
                       double write_fraction = 0.0);

    bool next(MemRef &ref) override;
    void reset() override;

  private:
    Addr base_;
    std::uint32_t block_bytes_;
    std::uint32_t blocks_;
    std::uint64_t count_;
    std::uint64_t seed_;
    double write_fraction_;
    Pcg32 rng_;
    std::uint64_t pos_ = 0;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_SYNTHETIC_H
