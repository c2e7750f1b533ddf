/**
 * @file
 * Streaming trace-source interface and an in-memory cursor source.
 *
 * Sources are resettable so every configuration replays the
 * byte-identical stream. Generators and file readers stream, so a
 * single replay holds only its pull buffer. A sweep that replays
 * one synthesized trace in several jobs materializes it once
 * instead (exec::runSweepChecked) and gives every job a
 * VectorTraceSource cursor over the shared, immutable buffer.
 */

#ifndef ASSOC_TRACE_TRACE_SOURCE_H
#define ASSOC_TRACE_TRACE_SOURCE_H

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/memref.h"
#include "util/cancel.h"
#include "util/error.h"

namespace assoc {
namespace trace {

/** Abstract resettable stream of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @param ref output record, valid only when true is returned.
     * @return false at end of trace, or when the source failed —
     *         callers distinguish the two via error().
     */
    virtual bool next(MemRef &ref) = 0;

    /** Rewind to the beginning; the same stream replays. */
    virtual void reset() = 0;

    /**
     * Produce up to @p max references into @p out. Returns how many
     * were produced; fewer than @p max only at end of trace (or on
     * failure — check error(), exactly as with next()). The default
     * simply loops next(); sources with contiguous backing override
     * it to amortize the per-record virtual dispatch (every replay
     * pulls through here: mem::TwoLevelHierarchy::run and
     * sim::runTrace). The stream is identical to repeated next()
     * calls by contract.
     */
    virtual std::size_t
    nextBatch(MemRef *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * Status of the stream. File-backed sources record malformed
     * input here (per their ErrorPolicy) instead of throwing;
     * in-memory sources are always ok.
     */
    virtual const Error &error() const { return okError(); }

    /** True when the stream stopped on an error rather than EOF. */
    bool failed() const { return error().failed(); }

    /** Malformed records tolerated so far (ErrorMode::Skip). */
    virtual std::uint64_t skippedRecords() const { return 0; }

    /**
     * Attach a cooperative cancel token (not owned; null detaches).
     * File-backed sources poll it every few hundred records and
     * stop with its structured error, so a cancelled job never
     * spends minutes finishing a doomed read. In-memory sources
     * ignore it — the simulation loop already checkpoints.
     */
    virtual void setCancelToken(const CancelToken *) {}

    /**
     * Attach a memory budget (not owned; null detaches). Sources
     * with input-proportional buffers charge them here; a malformed
     * input that balloons a buffer then fails with a structured
     * budget error instead of an OOM.
     */
    virtual void setMemBudget(MemBudget *) {}

  protected:
    /** Shared "no error" singleton for sources that cannot fail. */
    static const Error &
    okError()
    {
        static const Error ok;
        return ok;
    }
};

/** Throw the source's Error when streaming stopped on a failure. */
inline void
throwIfFailed(const TraceSource &src)
{
    if (src.failed())
        throwError(Error(src.error()));
}

/**
 * Drain @p src from the top into a vector, pulling with nextBatch().
 * @p expected, when known, is reserved up front so the vector never
 * reallocates. Throws the source's Error when it stopped on a
 * failure.
 */
inline std::vector<MemRef>
materialize(TraceSource &src, std::size_t expected = 0)
{
    std::vector<MemRef> refs;
    refs.reserve(expected);
    src.reset();
    MemRef buf[64];
    while (std::size_t n = src.nextBatch(buf, 64))
        refs.insert(refs.end(), buf, buf + n);
    throwIfFailed(src);
    return refs;
}

/**
 * Cursor over an immutable in-memory trace (tests, small traces, a
 * sweep's shared synthesized trace). The records are held by a
 * shared_ptr to const, so any number of cursors, on any threads,
 * can replay one buffer; each cursor keeps only its position.
 */
class VectorTraceSource : public TraceSource
{
  public:
    /** Shared, immutable backing records. */
    using Buffer = std::shared_ptr<const std::vector<MemRef>>;

    VectorTraceSource() : VectorTraceSource(std::vector<MemRef>()) {}
    explicit VectorTraceSource(std::vector<MemRef> refs)
        : refs_(std::make_shared<const std::vector<MemRef>>(
              std::move(refs)))
    {}
    /** A cursor over @p refs; nothing is copied. A template, so a
     *  braced list of records always means the vector overload. */
    explicit VectorTraceSource(std::same_as<Buffer> auto refs)
        : refs_(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (pos_ >= refs_->size())
            return false;
        ref = (*refs_)[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    /** Bulk copy straight out of the backing vector. */
    std::size_t
    nextBatch(MemRef *out, std::size_t max) override
    {
        std::size_t n = std::min(max, refs_->size() - pos_);
        std::copy_n(refs_->begin() + static_cast<std::ptrdiff_t>(pos_),
                    n, out);
        pos_ += n;
        return n;
    }

    /** Total number of stored references. */
    std::size_t size() const { return refs_->size(); }

    /** Access to the underlying records. */
    const std::vector<MemRef> &refs() const { return *refs_; }

  private:
    Buffer refs_;
    std::size_t pos_ = 0;
};

/**
 * Base of every transparent wrapper (docs/TRACES.md): status and
 * attachments forward to the inner source, so a wrapped reader that
 * stops on a real failure is never mistaken for a clean end of
 * trace, and cancel tokens and memory budgets reach the reader that
 * actually polls them. Wrappers implement next() and reset() only.
 */
class ForwardingTraceSource : public TraceSource
{
  public:
    const Error &error() const override { return inner_.error(); }

    std::uint64_t skippedRecords() const override
    {
        return inner_.skippedRecords();
    }

    void setCancelToken(const CancelToken *t) override
    {
        inner_.setCancelToken(t);
    }

    void setMemBudget(MemBudget *b) override
    {
        inner_.setMemBudget(b);
    }

  protected:
    /** @param inner the wrapped source (not owned). */
    explicit ForwardingTraceSource(TraceSource &inner) : inner_(inner) {}

    TraceSource &inner_;
};

/**
 * Wrap a source, truncating it after @p limit references.
 * Useful for quick runs of the full ATUM-like trace.
 */
class LimitedTraceSource : public ForwardingTraceSource
{
  public:
    LimitedTraceSource(TraceSource &inner, std::uint64_t limit)
        : ForwardingTraceSource(inner), limit_(limit)
    {}

    bool
    next(MemRef &ref) override
    {
        if (count_ >= limit_)
            return false;
        if (!inner_.next(ref))
            return false;
        ++count_;
        return true;
    }

    void
    reset() override
    {
        inner_.reset();
        count_ = 0;
    }

  private:
    std::uint64_t limit_;
    std::uint64_t count_ = 0;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_TRACE_SOURCE_H
