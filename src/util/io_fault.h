/**
 * @file
 * Seeded IO-fault injection at the stream layer.
 *
 * The trace readers (din/ftr) accept any std::istream, so fault
 * tests and the `fuzz_diff --inject-faults` campaign wrap a real
 * file in a FaultyStreamBuf that misbehaves at a planned byte
 * offset: a *short read* (the file ends early, as if the tail was
 * torn off by a crashed writer or a truncated download) or a *hard
 * IO error* (EIO from a dying disk — surfaces as badbit on the
 * stream). A hard error must always become a structured Io error,
 * never a clean end-of-file (that would silently compute statistics
 * over a prefix). A short read looks exactly like a shorter file,
 * and each reader treats it as one. Din text can tell only when the
 * cut splits a line: the last line then has no newline, which Strict
 * rejects as a Data error, while FailFast and Skip read it as
 * whatever its first part parses to. Ftr, whose header and footer
 * record the total, counts it as a torn tail — a Data error under
 * FailFast/Strict, skipped and counted under Skip.
 *
 * Everything is a pure function of the plan, so a failing fuzz case
 * replays byte-identically.
 */

#ifndef ASSOC_UTIL_IO_FAULT_H
#define ASSOC_UTIL_IO_FAULT_H

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>

namespace assoc {

/** Where the wrapped stream misbehaves (byte offsets from start). */
struct IoFaultPlan
{
    /** No fault at this offset. */
    static constexpr std::uint64_t kNever = ~0ull;

    /** Reads at or past this offset see end-of-file (torn tail). */
    std::uint64_t short_read_at = kNever;
    /** Reads at or past this offset fail hard (badbit, like EIO).
     *  Takes precedence over short_read_at when both are armed. */
    std::uint64_t io_error_at = kNever;

    bool armed() const
    {
        return short_read_at != kNever || io_error_at != kNever;
    }
};

/**
 * A read-only streambuf over a file that injects the planned fault.
 * Seeks are forwarded to the underlying file (the readers rewind on
 * reset()), and the fault re-arms after a seek: it is a property of
 * the byte offset, not of elapsed reads.
 */
class FaultyStreamBuf : public std::streambuf
{
  public:
    FaultyStreamBuf(const std::string &path, const IoFaultPlan &plan);

    /** False when the underlying file failed to open. */
    bool isOpen() const { return file_.is_open(); }

  protected:
    int_type underflow() override;
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override;
    pos_type seekpos(pos_type pos,
                     std::ios_base::openmode which) override;

  private:
    /** Bytes readable before the armed fault bites (0 = at fault). */
    std::uint64_t budgetLeft() const;

    std::filebuf file_;
    IoFaultPlan plan_;
    std::uint64_t pos_ = 0;
    char buf_[4096];
};

/**
 * Open @p path for reading with @p plan injected. Returns a stream
 * whose failbit is set when the file cannot be opened (matching
 * std::ifstream), so reader constructors need no special casing.
 */
std::unique_ptr<std::istream>
openFaultyFile(const std::string &path, const IoFaultPlan &plan);

} // namespace assoc

#endif // ASSOC_UTIL_IO_FAULT_H
