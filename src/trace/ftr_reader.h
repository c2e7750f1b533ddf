/**
 * @file
 * Recoverable, prefetching reader for the framed trace (ftr) format.
 *
 * Every frame is verified (header CRC, payload CRC, exact decode)
 * *before* any of its records reach the simulator. What happens on a
 * bad frame is the ErrorPolicy's call:
 *
 *  - FailFast/Strict: stop with a structured Data error naming the
 *    file, byte offset, and record position.
 *  - Skip: resync — scan forward for the next frame whose sync
 *    magic, header CRC, and payload CRC all check out, count the
 *    records the damage swallowed (frames carry absolute record
 *    indices, so the gap is exact), and keep streaming. Each damaged
 *    region counts as ONE damage event against ErrorPolicy::
 *    max_skips; skippedRecords() still reports lost *records*, so a
 *    single 64Ki-record frame lost to a disk error does not exhaust
 *    a 100-event budget.
 *
 * Hard IO errors (badbit — the device failed, not the data) are
 * never skippable; they surface as Error::io regardless of policy.
 *
 * The footer's frame index makes the file seekable; when it is torn
 * off or damaged, Skip mode rebuilds the index by scanning frame
 * headers (FailFast reports it). A writer killed before
 * FtrWriter::finish() additionally leaves the header's record total
 * unpatched at zero; the same scan then derives the total from the
 * recovered frames, so every flushed frame is still delivered
 * (records that never left the writer's buffer are unknowable).
 *
 * A producer thread always verifies and decodes ahead while the
 * simulator drains the current frame. Every decoded-frame buffer is
 * charged to the attached MemBudget; a reader holds at most four at
 * once (the consumer's, kPrefetchDepth queued, and the one the
 * producer decoded before waiting for queue room) plus one payload
 * scratch buffer. Cancellation is polled at frame granularity on the
 * producer and every ~1k records on the consumer.
 *
 * Every frame is read through FtrFrameReader::readFrame(), the one
 * verify-and-decode routine: exec's parallel decode of a clean file
 * into a sweep's shared buffer reads its frames through it too.
 */

#ifndef ASSOC_TRACE_FTR_READER_H
#define ASSOC_TRACE_FTR_READER_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/ftr_format.h"
#include "trace/trace_source.h"

namespace assoc {
namespace trace {

/**
 * Verified frame reads from one ftr file through one stream of its
 * own (std::istream is not shared across threads), with one payload
 * scratch buffer charged to the attached budget. Not thread-safe:
 * one per thread.
 */
class FtrFrameReader
{
  public:
    /** Outcome of reading one frame at a byte offset. */
    enum class Check {
        Good,    ///< fully verified and decoded
        Corrupt, ///< damage (bad CRC/decode/short data) — resyncable
        Hard,    ///< unskippable failure (IO error, budget, refusal)
    };

    /** Where a verified frame's records go: fh.record_count
     *  writable records, or set @p refused to refuse the frame. */
    using Destination = std::function<MemRef *(
        const ftr::FrameHeader &fh, Error &refused)>;

    /** Read through @p in (may be null when the file could not be
     *  opened; then nothing may be read); @p name labels errors. */
    FtrFrameReader(std::unique_ptr<std::istream> in, std::string name);

    /** False when there is no readable stream. */
    bool opened() const { return in_ && !in_->fail(); }

    /** The file's size in bytes; an IO error lands in @p hard. */
    std::uint64_t fileSize(Error &hard);

    /** Read up to @p n bytes at byte offset @p off into @p dst. A
     *  device failure (never skippable) lands in @p hard. @return
     *  the bytes read: fewer than @p n at end of file. */
    std::size_t readAt(std::uint64_t off, std::uint8_t *dst,
                       std::size_t n, Error &hard);

    /**
     * Read and verify the frame at byte offset @p off: header magic,
     * CRC and caps (ftr::decodeFrameHeader()), the whole frame ending
     * by @p data_end, the payload CRC, and an exact decode of
     * fh.record_count records straight into @p into's destination,
     * asked for once the payload CRC has checked out. A refusal by
     * @p into is Hard, with its error in @p hard.
     */
    Check readFrame(std::uint64_t off, std::uint64_t data_end,
                    ftr::FrameHeader &fh, const Destination &into,
                    Error &hard);

    /** Charge the payload scratch here (null = no accounting). */
    void setMemBudget(MemBudget *b) { budget_ = b; }

  private:
    std::unique_ptr<std::istream> in_;
    std::string name_;
    MemBudget *budget_ = nullptr;
    std::vector<std::uint8_t> buf_; ///< frame payload scratch
    MemCharge buf_charge_;
};

/** Streaming TraceSource over an ftr file. */
class FtrTraceSource : public TraceSource
{
  public:
    /** Open @p path; problems land in error(), nothing throws. */
    explicit FtrTraceSource(const std::string &path,
                            ErrorPolicy policy = ErrorPolicy());

    /** Read from a caller-supplied stream (fault-injection tests);
     *  @p name labels error messages. */
    FtrTraceSource(std::unique_ptr<std::istream> in, std::string name,
                   ErrorPolicy policy = ErrorPolicy());

    ~FtrTraceSource() override;

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *out, std::size_t max) override;
    void reset() override;

    const Error &error() const override { return error_; }

    /** Records lost to damaged/missing frames (Skip mode). */
    std::uint64_t skippedRecords() const override { return skipped_; }

    /** Damaged regions tolerated so far (what max_skips bounds). */
    std::uint64_t damageEvents() const { return damage_; }

    /** Record count claimed by the (CRC-verified) file header — or,
     *  when a crash before FtrWriter::finish() left the header total
     *  unpatched (zero) with frames on disk, the total derived from
     *  the recovered frames during the index rebuild. */
    std::uint64_t totalRecords() const { return total_; }

    /** Writer's frame size hint from the header. */
    std::uint32_t frameRecords() const { return header_.frame_records; }

    /** True when the footer was unusable and the frame index was
     *  rebuilt by scanning (Skip mode only). */
    bool indexRebuilt() const { return index_rebuilt_; }

    /** Frame seek points (from the footer, or rebuilt by scan). */
    const std::vector<ftr::IndexEntry> &frameIndex() const
    {
        return index_;
    }

    /** Byte offset where the frames stop: the footer's, when the
     *  footer was read. */
    std::uint64_t dataEnd() const { return data_end_; }

    /** Attach before streaming begins (or after reset()). */
    void setCancelToken(const CancelToken *t) override { cancel_ = t; }
    void
    setMemBudget(MemBudget *b) override
    {
        budget_ = b;
        frames_.setMemBudget(b);
    }

  private:
    /** Decoded frames queued between producer and consumer. The
     *  producer decodes a frame before it waits for room, so up to
     *  kPrefetchDepth + 2 decoded frames are charged at once. */
    static constexpr std::size_t kPrefetchDepth = 2;
    /** Consumer records between cancel-token polls. */
    static constexpr std::uint64_t kCancelStride = 1024;
    /** Bytes per chunk while scanning for a sync magic. */
    static constexpr std::size_t kScanChunk = 64 * 1024;

    /** One verified, decoded frame (or an end/error marker). */
    struct Slot
    {
        std::vector<MemRef> recs;
        MemCharge charge;
        std::uint64_t first_index = 0; ///< absolute index of recs[0]
        std::uint64_t skipped_total = 0;
        std::uint64_t damage_total = 0;
        Error err;
        bool end = false;
    };

    using FrameCheck = FtrFrameReader::Check;

    void openAndValidate();
    void loadIndex();
    void rebuildIndexByScan();
    FrameCheck tryFrameAt(std::uint64_t off, ftr::FrameHeader &fh,
                          Slot &s, Error &hard);
    bool resync(std::uint64_t from, ftr::FrameHeader &fh, Slot &s,
                Error &hard, bool &found);
    Slot fillSlot();
    void endOfData();
    void ensureStarted();
    void stopProducer();
    void producerLoop();
    bool pullBuffer();
    void resetCore();

    std::string name_;
    ErrorPolicy policy_;
    FtrFrameReader frames_;

    // Set once at open.
    ftr::FileHeader header_;
    /** Effective record total every bound/accounting check uses: the
     *  header's, unless total_unknown_ made the scan derive it. */
    std::uint64_t total_ = 0;
    /** The header total is unpatched (zero, writer crashed before
     *  finish()) and frames must speak for themselves. */
    bool total_unknown_ = false;
    std::vector<ftr::IndexEntry> index_;
    bool index_rebuilt_ = false;
    std::uint64_t file_size_ = 0;
    std::uint64_t data_end_ = 0; ///< byte offset where frames stop
    Error header_error_;         ///< permanent open/validation failure

    // Producer-side streaming state (the consumer touches it only
    // while no producer thread is running).
    std::uint64_t read_offset_ = 0;
    std::uint64_t expected_ = 0; ///< next record index due
    std::uint64_t core_skipped_ = 0;
    std::uint64_t core_damage_ = 0;
    bool core_end_ = false;
    Error core_err_;

    // Consumer-side state.
    std::vector<MemRef> cur_;
    MemCharge cur_charge_;
    std::size_t cur_pos_ = 0;
    std::uint64_t cur_first_ = 0;
    std::uint64_t polled_ = 0;
    std::uint64_t skipped_ = 0;
    std::uint64_t damage_ = 0;
    bool done_ = false;
    Error error_;
    const CancelToken *cancel_ = nullptr;
    MemBudget *budget_ = nullptr;

    // Prefetch plumbing.
    std::thread producer_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Slot> queue_;
    bool stop_ = false;
    bool started_ = false;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_FTR_READER_H
