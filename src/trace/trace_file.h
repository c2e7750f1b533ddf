/**
 * @file
 * The one place that knows the trace file formats: Dinero text
 * (.din) and the framed binary format (.ftr). Reading decides a
 * file's format by extension when it is telling and by magic-number
 * sniff when it is not, optionally with IO faults injected
 * underneath for robustness testing; writing goes by the output
 * path's extension alone.
 */

#ifndef ASSOC_TRACE_TRACE_FILE_H
#define ASSOC_TRACE_TRACE_FILE_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/ftr_format.h"
#include "trace/trace_source.h"
#include "util/error.h"
#include "util/io_fault.h"

namespace assoc {
namespace trace {

/** The trace file formats this repo reads and writes. */
enum class TraceFormat { Din, Ftr };

/** Short lowercase name ("din", "ftr"). */
const char *traceFormatName(TraceFormat f);

/**
 * Decide @p path's format for reading: a .din/.ftr extension wins;
 * anything else is sniffed by magic number (unreadable or
 * unrecognized files default to din, whose parser reports precise
 * line errors). A file that starts with the magic of the removed
 * packed .bin format is a Data error saying so.
 */
Expected<TraceFormat> detectTraceFormat(const std::string &path);

/**
 * Open @p path as a TraceSource of the detected format. Never null;
 * open failures are carried in the source's error() as usual. An
 * armed @p faults plan makes the reader see its injected IO faults
 * (short read / hard error at a byte offset) — the fault campaigns'
 * view of a dying disk.
 */
std::unique_ptr<TraceSource>
openTraceFile(const std::string &path,
              ErrorPolicy policy = ErrorPolicy(),
              const IoFaultPlan &faults = IoFaultPlan());

/**
 * Write all of @p src (after reset()) to @p path in the format its
 * extension names: .din, or .ftr with @p frame_records records per
 * frame. Any other extension is a Usage error, thrown before the
 * file is created; a writer failure is thrown too.
 */
void writeTraceFile(TraceSource &src, const std::string &path,
                    std::uint32_t frame_records =
                        ftr::kDefaultFrameRecords);

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_TRACE_FILE_H
