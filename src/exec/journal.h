/**
 * @file
 * Append-only sweep checkpoint journal.
 *
 * A journal records completed job outputs so an interrupted sweep
 * can be resumed with a bit-identical merged result. Format (text,
 * one record per line, written with an explicit flush per record):
 *
 *   # assoc sweep journal v1
 *   meta hash=<spec-hash hex16> jobs=<N>
 *   job <index> d=<digest hex16> <payload>
 *
 * The spec hash covers every field of every RunSpec that influences
 * results, so resuming against a different sweep is rejected. Each
 * job line carries an FNV-1a digest of its payload; doubles are
 * serialized as the hex of their IEEE-754 bit pattern, so restored
 * outputs are bit-exact. The v3 payload holds every member of the
 * stats records, in their field lists' order (util/stats.h). The
 * reader is tolerant: a torn final line (the process died
 * mid-write), a corrupted line or an older payload is skipped, so
 * that job re-runs, and a duplicated index keeps the last record.
 */

#ifndef ASSOC_EXEC_JOURNAL_H
#define ASSOC_EXEC_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "util/cancel.h"
#include "util/error.h"

namespace assoc {
namespace exec {

/**
 * Hash every result-relevant field of @p specs (FNV-1a). @p salt
 * folds in trace identity (seed, segment count) so a journal from
 * the same spec list over a different trace is rejected too.
 */
std::uint64_t hashSpecs(const std::vector<sim::RunSpec> &specs,
                        std::uint64_t salt = 0);

/** Identity hash of one spec (same fields hashSpecs() covers); what
 *  watchdog stall reports and timeout error contexts carry. */
std::uint64_t hashSpec(const sim::RunSpec &spec);

/** Serialize one RunOutput as a single journal payload line. */
std::string encodeRunOutput(const sim::RunOutput &out);

/** Parse a payload produced by encodeRunOutput (bit-exact). */
Expected<sim::RunOutput> decodeRunOutput(const std::string &payload);

/** Everything a journal file held. */
struct JournalData
{
    std::uint64_t spec_hash = 0;
    std::uint64_t jobs = 0;
    std::map<std::size_t, sim::RunOutput> entries;
    std::uint64_t dropped_lines = 0; ///< torn/corrupt lines skipped
};

/**
 * Load @p path. Unreadable files and bad headers are Errors;
 * individually corrupt job lines are tolerated (counted in
 * dropped_lines) because a SIGKILL mid-append legitimately tears
 * the final line. When @p budget is given, the bytes buffered while
 * reading (lines + decoded entries) are charged against it, so a
 * runaway journal fails with a structured budget error instead of
 * ballooning the process.
 */
Expected<JournalData> readJournal(const std::string &path,
                                  MemBudget *budget = nullptr);

/** Appends one digest-stamped record per completed job. */
class JournalWriter
{
  public:
    /**
     * Open @p path. With @p append the file is extended (resume)
     * and the header is only written when the file is empty or new;
     * otherwise the file is truncated and a fresh header written.
     */
    Error open(const std::string &path, std::uint64_t spec_hash,
               std::uint64_t jobs, bool append);

    bool isOpen() const { return out_.is_open(); }

    /** Append one record and flush it to the OS. */
    Error append(std::size_t index, const sim::RunOutput &out);

    /** Final flush + close (the drain path; idempotent). */
    Error close();

  private:
    std::ofstream out_;
    std::string path_;
};

} // namespace exec
} // namespace assoc

#endif // ASSOC_EXEC_JOURNAL_H
