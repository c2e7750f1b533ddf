#include "trace/sampling.h"

#include "util/bitops.h"

namespace assoc {
namespace trace {

Error
WindowSampledSource::validate(std::uint64_t on_refs,
                              std::uint64_t /*off_refs*/)
{
    if (on_refs == 0)
        return Error::usage("window sampling needs a non-empty "
                            "on-window");
    return Error();
}

Expected<WindowSampledSource>
WindowSampledSource::make(TraceSource &inner, std::uint64_t on_refs,
                          std::uint64_t off_refs)
{
    Error err = validate(on_refs, off_refs);
    if (err.failed())
        return err;
    return WindowSampledSource(inner, on_refs, off_refs);
}

WindowSampledSource::WindowSampledSource(TraceSource &inner,
                                         std::uint64_t on_refs,
                                         std::uint64_t off_refs)
    : ForwardingTraceSource(inner), on_refs_(on_refs),
      off_refs_(off_refs)
{
    Error err = validate(on_refs_, off_refs_);
    if (err.failed())
        throwError(std::move(err));
}

bool
WindowSampledSource::next(MemRef &ref)
{
    const std::uint64_t period = on_refs_ + off_refs_;
    while (inner_.next(ref)) {
        // Flush markers do not advance the window position and
        // always pass: cold-start boundaries must survive sampling.
        if (ref.isFlush())
            return true;
        bool in_window = pos_ % period < on_refs_;
        ++pos_;
        if (in_window)
            return true;
    }
    return false;
}

void
WindowSampledSource::reset()
{
    inner_.reset();
    pos_ = 0;
}

Error
SetSampledSource::validate(std::uint32_t block_bytes,
                           std::uint32_t sets,
                           std::uint32_t first_set,
                           std::uint32_t set_count)
{
    if (!isPow2(block_bytes))
        return Error::usage("block size must be a power of two");
    if (!isPow2(sets))
        return Error::usage("set count must be a power of two");
    if (set_count == 0)
        return Error::usage("set sampling needs at least one set");
    if (first_set >= sets || set_count > sets - first_set)
        return Error::usage("sampled set range exceeds the geometry");
    return Error();
}

Expected<SetSampledSource>
SetSampledSource::make(TraceSource &inner, std::uint32_t block_bytes,
                       std::uint32_t sets, std::uint32_t first_set,
                       std::uint32_t set_count)
{
    Error err = validate(block_bytes, sets, first_set, set_count);
    if (err.failed())
        return err;
    return SetSampledSource(inner, block_bytes, sets, first_set,
                            set_count);
}

SetSampledSource::SetSampledSource(TraceSource &inner,
                                   std::uint32_t block_bytes,
                                   std::uint32_t sets,
                                   std::uint32_t first_set,
                                   std::uint32_t set_count)
    : ForwardingTraceSource(inner), first_set_(first_set),
      set_count_(set_count)
{
    Error err = validate(block_bytes, sets, first_set_, set_count_);
    if (err.failed())
        throwError(std::move(err));
    offset_bits_ = log2i(block_bytes);
    set_mask_ = sets - 1;
}

bool
SetSampledSource::next(MemRef &ref)
{
    while (inner_.next(ref)) {
        ++consumed_;
        if (ref.isFlush())
            return true;
        std::uint32_t set = (ref.addr >> offset_bits_) & set_mask_;
        if (set >= first_set_ && set < first_set_ + set_count_)
            return true;
    }
    return false;
}

void
SetSampledSource::reset()
{
    inner_.reset();
    consumed_ = 0;
}

} // namespace trace
} // namespace assoc
