/**
 * @file
 * Dinero ("din") ASCII trace format reader/writer.
 *
 * The classic format is one reference per line: "<label> <hex-addr>"
 * with label 0 = data read, 1 = data write, 2 = instruction fetch.
 * We additionally use label 4 for a cache-flush marker (Dinero III
 * reserved 3 for its own purposes) and allow an optional third
 * column carrying the process id. Lines starting with '#' are
 * comments.
 *
 * Malformed lines are reported as recoverable Errors with file:line
 * and the offending text, governed by an ErrorPolicy: FailFast stops
 * at the first bad line, Skip tolerates up to max_skips of them,
 * Strict additionally rejects trailing columns, non-numeric pids,
 * and out-of-range addresses/pids that FailFast silently truncates.
 *
 * A file cut mid-line (a truncated file, or a short read from the
 * device) ends in a record line without its newline. Strict rejects
 * that line as a Data error, because writeDin() ends every line with
 * one. FailFast and Skip cannot tell truncation from a hand-written
 * file that simply lacks the final newline, so they read the line as
 * whatever it parses to.
 */

#ifndef ASSOC_TRACE_DIN_IO_H
#define ASSOC_TRACE_DIN_IO_H

#include <istream>
#include <memory>
#include <string>

#include "trace/trace_source.h"
#include "util/error.h"

namespace assoc {
namespace trace {

/** Write all references of @p src to @p path in din format. A file
 *  that cannot be created or written throws an Io error. */
void writeDin(TraceSource &src, const std::string &path);

/** Streaming reader for din trace files. */
class DinTraceSource : public TraceSource
{
  public:
    /**
     * Open @p path. An unreadable file is recorded as an Io error —
     * check error() (or let sim::runTrace surface it) rather than
     * expecting a throw.
     */
    explicit DinTraceSource(const std::string &path,
                            ErrorPolicy policy = ErrorPolicy());

    /** Read from a caller-supplied stream (fault-injection tests);
     *  @p name labels error messages. */
    DinTraceSource(std::unique_ptr<std::istream> in, std::string name,
                   ErrorPolicy policy = ErrorPolicy());

    bool next(MemRef &ref) override;
    void reset() override;

    const Error &error() const override { return error_; }
    std::uint64_t skippedRecords() const override { return skipped_; }

    /** Polled every kCancelStride lines; a tripped token stops the
     *  stream with its structured error. */
    void setCancelToken(const CancelToken *t) override { cancel_ = t; }

    /** Charged for the line buffer as it grows, so a pathological
     *  no-newline file fails with a budget error, not an OOM. */
    void setMemBudget(MemBudget *b) override { budget_ = b; }

  private:
    /** Lines between cancel-token polls while streaming. */
    static constexpr std::uint64_t kCancelStride = 256;

    /**
     * Handle one malformed line per the policy.
     * @return true when the line may be skipped and reading resumes.
     */
    bool tolerate(const std::string &what, const std::string &text);

    std::string path_;
    ErrorPolicy policy_;
    std::unique_ptr<std::istream> in_;
    std::uint64_t line_ = 0;
    std::uint64_t skipped_ = 0;
    const CancelToken *cancel_ = nullptr;
    MemBudget *budget_ = nullptr;
    MemCharge line_charge_;
    Error error_;
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_DIN_IO_H
