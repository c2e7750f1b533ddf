/**
 * @file
 * Deterministic differential fuzzing of the lookup schemes.
 *
 * Each fuzz case PCG-samples one cache hierarchy (geometry,
 * replacement policy, inclusion/write-policy knobs), one scheme
 * parameterization (tag width, MRU list length, partial k/s and
 * transform) and one synthetic reference trace, then runs a single
 * ground-truth simulation with every scheme's meter attached. The
 * InvariantAuditor validates each lookup in flight (probe bounds,
 * reference re-execution, oracle agreement, step-1 superset,
 * LRU-stack integrity) and a post-run pass cross-checks measured
 * probe statistics against the exact Section 2 identities (a Naive
 * miss always costs a probes, an MRU miss a + 1, a Traditional
 * access 1, ...).
 *
 * Everything is a pure function of (master seed, case index): every
 * failure prints a one-line `fuzz_diff --seed=... --config=...`
 * repro command plus a minimized counterexample trace.
 */

#ifndef ASSOC_CHECK_FUZZ_H
#define ASSOC_CHECK_FUZZ_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/memref.h"

namespace assoc {
namespace check {

/**
 * Deliberately broken lookup variants for harness self-tests: the
 * fuzzer must *fail* when one of these replaces the real scheme.
 */
enum class BugInjection {
    None,
    /** Naive scan that never examines way 0. */
    NaiveSkip,
    /** MRU scan that under-reports its probe count by one. */
    MruUndercount,
    /** Partial compare whose step-1 filter drops a candidate. */
    PartialFilter,
    /** Way memo that trusts stale entries: a memo hit names the
     *  wrong way. */
    MemoStale,
};

/** Parse "none" / "naive-skip" / "mru-undercount" /
 *  "partial-filter" / "memo-stale". */
BugInjection bugInjectionFromString(const std::string &s);

/** One sampled fuzz case: a pure function of its case seed. */
struct FuzzCase
{
    std::uint64_t case_seed = 0;
    mem::HierarchyConfig hier{mem::CacheGeometry(1024, 16, 2),
                              mem::CacheGeometry(4096, 32, 4), true};
    bool wb_optimization = true;
    unsigned tag_bits = 16;
    std::vector<core::SchemeSpec> schemes;
    std::vector<trace::MemRef> refs;

    /** One-line description for failure reports. */
    std::string describe() const;
};

/** Sample the case implied by (master seed, case index). */
FuzzCase sampleCase(std::uint64_t seed, std::uint64_t index);

/** What running one case produced. */
struct CaseResult
{
    ViolationLog log;
    std::uint64_t accesses = 0; ///< audited lookups
    std::uint64_t digest = 0;   ///< FNV-1a over all meter stats
};

/**
 * Run one case: stream its trace through its hierarchy with every
 * scheme metered and audited, then apply the post-run statistic
 * cross-checks. Exceptions (panic/fatal) are caught and logged as
 * violations. @p refs overrides the case's trace when non-null
 * (used by the minimizer).
 */
CaseResult runCase(const FuzzCase &c,
                   BugInjection inject = BugInjection::None,
                   const std::vector<trace::MemRef> *refs = nullptr);

/**
 * Shrink @p c's trace to a (1-minimal-ish) subsequence that still
 * fails, by chunked delta debugging.
 */
std::vector<trace::MemRef> minimizeTrace(const FuzzCase &c,
                                         BugInjection inject);

/** The one-line repro command for (seed, case index). */
std::string reproCommand(std::uint64_t seed, std::uint64_t index);

/** Render one reference ("R 0x12345678 pid=1"). */
std::string formatRef(const trace::MemRef &r);

/** One failing case, ready to report. */
struct FuzzFailure
{
    std::uint64_t index = 0;
    std::uint64_t case_seed = 0;
    std::string description;
    std::vector<std::string> messages;
    std::vector<trace::MemRef> minimized;
};

/** Fuzzing campaign parameters. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint64_t iterations = 1000;
    /** Run only this case index (repro mode). */
    bool have_only_case = false;
    std::uint64_t only_case = 0;
    BugInjection inject = BugInjection::None;
    /** Stop after this many failing cases. */
    unsigned max_failures = 1;
    /** Skip trace minimization on failures. */
    bool minimize = true;
    /** Progress/status stream (nullptr = silent). */
    std::ostream *log = nullptr;
};

/** Campaign outcome. */
struct FuzzSummary
{
    std::uint64_t cases_run = 0;
    std::uint64_t accesses = 0;  ///< audited lookups, all cases
    std::uint64_t digest = 0;    ///< order-sensitive digest of all
                                 ///< case digests (determinism tests)
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** Run the campaign described by @p opt. */
FuzzSummary runFuzz(const FuzzOptions &opt);

} // namespace check
} // namespace assoc

#endif // ASSOC_CHECK_FUZZ_H
