/**
 * @file
 * Trace sampling: standard techniques for making long traces cheap
 * to simulate while approximately preserving cache statistics.
 *
 *  - WindowSampledSource (time sampling): pass through alternating
 *    on/off windows of the underlying trace. Within-window locality
 *    is preserved; the effective trace shrinks by roughly
 *    on / (on + off). Flush markers always pass through so segment
 *    boundaries stay intact.
 *
 *  - SetSampledSource (set sampling [Puzak85 style]): keep only the
 *    references whose block maps into a chosen fraction of the
 *    cache sets (a contiguous range of set indices under the given
 *    geometry). Per-set behaviour is exact for the surviving sets,
 *    so miss *ratios* are nearly unbiased while the simulation
 *    touches 1/k of the cache.
 *
 * Both are transparent wrappers (ForwardingTraceSource): a wrapped
 * file-backed source that stops on a real read failure still fails
 * the wrapper, and cancel tokens / memory budgets attached to the
 * wrapper reach the reader that actually polls them.
 *
 * Bad sampling geometry is a structured Usage error, not a process
 * abort: prefer the make() factories (Expected, matching the trace
 * readers); the constructors throw the same Error as an
 * ErrorException for call sites that want exceptions.
 */

#ifndef ASSOC_TRACE_SAMPLING_H
#define ASSOC_TRACE_SAMPLING_H

#include <cstdint>

#include "trace/trace_source.h"

namespace assoc {
namespace trace {

/** Alternating on/off window pass-through. */
class WindowSampledSource : public ForwardingTraceSource
{
  public:
    /**
     * @param inner the full trace (not owned).
     * @param on_refs references passed per window.
     * @param off_refs references dropped between windows.
     *
     * Throws ErrorException (Usage) on a bad geometry; make() is
     * the non-throwing equivalent.
     */
    WindowSampledSource(TraceSource &inner, std::uint64_t on_refs,
                        std::uint64_t off_refs);

    /** Validate the window geometry without constructing. */
    static Error validate(std::uint64_t on_refs,
                          std::uint64_t off_refs);

    /** Non-throwing constructor: a source, or a structured Usage
     *  error a sweep job can report as a failed JobResult. */
    static Expected<WindowSampledSource>
    make(TraceSource &inner, std::uint64_t on_refs,
         std::uint64_t off_refs);

    bool next(MemRef &ref) override;
    void reset() override;

  private:
    std::uint64_t on_refs_;
    std::uint64_t off_refs_;
    std::uint64_t pos_ = 0; ///< position within the on+off period
};

/** Keep references mapping to set indices [first, first+count). */
class SetSampledSource : public ForwardingTraceSource
{
  public:
    /**
     * The set function is described by raw geometry parameters so
     * the trace layer stays independent of the cache model; pass a
     * CacheGeometry's blockBytes()/sets() when one is at hand.
     *
     * @param inner the full trace (not owned).
     * @param block_bytes cache block size (power of two).
     * @param sets number of sets (power of two).
     * @param first_set first sampled set index.
     * @param set_count number of sampled sets.
     *
     * Throws ErrorException (Usage) on a bad geometry; make() is
     * the non-throwing equivalent.
     */
    SetSampledSource(TraceSource &inner, std::uint32_t block_bytes,
                     std::uint32_t sets, std::uint32_t first_set,
                     std::uint32_t set_count);

    /** Validate the sampling geometry without constructing. */
    static Error validate(std::uint32_t block_bytes,
                          std::uint32_t sets, std::uint32_t first_set,
                          std::uint32_t set_count);

    /** Non-throwing constructor: a source, or a structured Usage
     *  error a sweep job can report as a failed JobResult. */
    static Expected<SetSampledSource>
    make(TraceSource &inner, std::uint32_t block_bytes,
         std::uint32_t sets, std::uint32_t first_set,
         std::uint32_t set_count);

    bool next(MemRef &ref) override;
    void reset() override;

    /** References read from the underlying trace so far. */
    std::uint64_t consumed() const { return consumed_; }

  private:
    unsigned offset_bits_;
    std::uint32_t set_mask_;
    std::uint32_t first_set_;
    std::uint32_t set_count_;
    std::uint64_t consumed_ = 0;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_SAMPLING_H
