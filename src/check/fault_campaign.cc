#include "check/fault_campaign.h"

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <unistd.h>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "trace/atum_like.h"
#include "trace/bin_io.h"
#include "trace/din_io.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"
#include "trace/trace_file.h"
#include "util/error.h"
#include "util/io_fault.h"
#include "util/rng.h"

namespace assoc {
namespace check {

namespace {

namespace fs = std::filesystem;

/** The sixteen fault families, selected by case index % 16. */
enum class FaultKind {
    DinCorruptFailFast,
    DinCorruptSkip,
    DinCorruptStrict,
    BinTruncate,
    BinCorrupt,
    LookupThrow,
    TransientRetry,
    CancelResume,
    Hang,
    Slow,
    Oom,
    FtrCorrupt,
    FtrTruncate,
    FtrTornFooter,
    IoShortRead,
    IoError,
};

constexpr std::uint64_t kFaultKinds = 16;

const char *
kindName(FaultKind k)
{
    switch (k) {
      case FaultKind::DinCorruptFailFast:
        return "din-corrupt-failfast";
      case FaultKind::DinCorruptSkip:
        return "din-corrupt-skip";
      case FaultKind::DinCorruptStrict:
        return "din-corrupt-strict";
      case FaultKind::BinTruncate:
        return "bin-truncate";
      case FaultKind::BinCorrupt:
        return "bin-corrupt";
      case FaultKind::LookupThrow:
        return "lookup-throw";
      case FaultKind::TransientRetry:
        return "transient-retry";
      case FaultKind::CancelResume:
        return "cancel-resume";
      case FaultKind::Hang:
        return "hang";
      case FaultKind::Slow:
        return "slow";
      case FaultKind::Oom:
        return "oom";
      case FaultKind::FtrCorrupt:
        return "ftr-corrupt";
      case FaultKind::FtrTruncate:
        return "ftr-truncate";
      case FaultKind::FtrTornFooter:
        return "ftr-torn-footer";
      case FaultKind::IoShortRead:
        return "io-short-read";
      case FaultKind::IoError:
        return "io-error";
    }
    return "?";
}

/** True when @p e (or its context chain) mentions the spec hash. */
bool
mentionsSpecHash(const Error &e)
{
    return e.text().find("job spec hash") != std::string::npos;
}

/** Per-case scratch-file set, removed on scope exit. */
class Scratch
{
  public:
    explicit Scratch(const std::string &dir) : dir_(dir) {}

    ~Scratch()
    {
        std::error_code ec;
        for (const std::string &p : files_)
            fs::remove(p, ec);
    }

    std::string
    file(const std::string &name)
    {
        std::string p = (fs::path(dir_) / name).string();
        files_.push_back(p);
        return p;
    }

  private:
    std::string dir_;
    std::vector<std::string> files_;
};

/** Everything one case asserts; collects violations as strings. */
struct CaseCheck
{
    std::vector<std::string> violations;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
};

/** A tiny deterministic source trace for the corruption cases. */
trace::AtumLikeConfig
smallTrace(std::uint64_t case_seed, std::uint64_t refs)
{
    trace::AtumLikeConfig cfg;
    cfg.seed = case_seed;
    cfg.segments = 1;
    cfg.refs_per_segment = refs;
    cfg.processes = 2;
    cfg.switch_mean = 50;
    return cfg;
}

/**
 * Drain @p src, bounded so a reader bug that loops forever shows up
 * as a violation instead of a hang. Returns references streamed.
 */
std::uint64_t
drainBounded(trace::TraceSource &src, std::uint64_t bound,
             CaseCheck &chk)
{
    trace::MemRef r;
    std::uint64_t n = 0;
    while (n <= bound && src.next(r))
        ++n;
    chk.require(n <= bound,
                "reader streamed past the record bound (runaway)");
    return n;
}

/** Post-stream contract every reader must satisfy. */
void
checkReaderContract(const trace::TraceSource &src, ErrorMode mode,
                    std::uint64_t max_skips, CaseCheck &chk)
{
    if (src.failed()) {
        ErrorCode c = src.error().code();
        chk.require(c == ErrorCode::Data || c == ErrorCode::Io,
                    std::string("reader error is ") +
                        errorCodeName(c) + ", want data or io");
        chk.require(!src.error().text().empty(),
                    "reader error has empty text");
    } else if (mode == ErrorMode::Skip) {
        chk.require(src.skippedRecords() <= max_skips,
                    "skip count exceeds the policy cap without an "
                    "error");
    }
    if (mode == ErrorMode::FailFast)
        chk.require(src.skippedRecords() == 0,
                    "fail-fast reader skipped records");
}

/** Flip bytes of a din file and stream it back under @p mode. */
void
caseDinCorrupt(Scratch &scratch, std::uint64_t case_seed,
               ErrorMode mode, CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x64696eULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);
    trace::AtumLikeGenerator gen(cfg);

    std::string path = scratch.file("fault.din");
    std::uint64_t written = gen.totalRefs();
    trace::writeDin(gen, path);

    unsigned flips = 1 + rng.below(8);
    exec::FaultInjector::corruptBytes(path, case_seed ^ 0xd1d1ULL,
                                      flips);

    ErrorPolicy policy;
    policy.mode = mode;
    trace::DinTraceSource src(path, policy);
    // A flip can at most split one line in two, so the stream can
    // never grow by more than one record per flip.
    std::uint64_t streamed =
        drainBounded(src, written + flips, chk);
    checkReaderContract(src, mode, policy.max_skips, chk);
    if (src.failed())
        chk.require(streamed <= written + flips,
                    "failed reader over-delivered records");

    // reset() must replay the identical outcome.
    src.reset();
    std::uint64_t again =
        drainBounded(src, written + flips, chk);
    chk.require(again == streamed,
                "reset() changed the streamed record count (" +
                    std::to_string(streamed) + " then " +
                    std::to_string(again) + ")");
}

/** Truncate a bin file and stream it back under a sampled policy. */
void
caseBinTruncate(Scratch &scratch, std::uint64_t case_seed,
                CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x62696eULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);
    trace::AtumLikeGenerator gen(cfg);

    std::string path = scratch.file("fault.bin");
    std::uint64_t written = trace::writeBin(gen, path);
    std::uint64_t full = 16 + written * 6;
    std::uint64_t keep = rng.below(static_cast<std::uint32_t>(full));
    exec::FaultInjector::truncateFile(path, keep);

    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    trace::BinTraceSource src(path, policy);

    std::uint64_t streamed = drainBounded(src, written, chk);
    checkReaderContract(src, policy.mode, policy.max_skips, chk);

    std::uint64_t whole = keep >= 16 ? (keep - 16) / 6 : 0;
    if (policy.mode != ErrorMode::Skip) {
        // Truncation is always detectable against the header count.
        chk.require(src.failed(),
                    "truncated bin file was not rejected (keep=" +
                        std::to_string(keep) + "/" +
                        std::to_string(full) + ")");
    } else if (keep >= 16 && written - whole <= policy.max_skips) {
        chk.require(!src.failed(),
                    "skip-mode reader rejected a clampable "
                    "truncation: " + src.error().text());
        chk.require(streamed == whole,
                    "skip-mode reader streamed " +
                        std::to_string(streamed) + " of " +
                        std::to_string(whole) + " whole records");
        chk.require(src.skippedRecords() == written - whole,
                    "skip-mode reader miscounted lost records");
    }
}

/** Flip body bytes of a bin file (header protected). */
void
caseBinCorrupt(Scratch &scratch, std::uint64_t case_seed,
               CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x626332ULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);
    trace::AtumLikeGenerator gen(cfg);

    std::string path = scratch.file("fault2.bin");
    std::uint64_t written = trace::writeBin(gen, path);

    unsigned flips = 1 + rng.below(4);
    exec::FaultInjector::corruptBytes(path, case_seed ^ 0xb1bULL,
                                      flips, /*skip=*/16);

    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    trace::BinTraceSource src(path, policy);

    // Body flips never touch the header, so the claimed count holds
    // and the stream can only shrink (bad records dropped).
    std::uint64_t streamed = drainBounded(src, written, chk);
    checkReaderContract(src, policy.mode, policy.max_skips, chk);
    chk.require(streamed + src.skippedRecords() <= written,
                "corrupt bin reader invented records");
    if (!src.failed())
        chk.require(streamed + src.skippedRecords() == written,
                    "reader lost records without reporting a skip "
                    "or an error");
}

/**
 * Post-stream contract for the ftr reader. Unlike din/bin, the
 * policy's skip cap bounds damaged *regions* (damage events); one
 * region may lose many records, all reported via skippedRecords().
 */
void
checkFtrContract(const trace::FtrTraceSource &src, ErrorMode mode,
                 std::uint64_t max_skips, CaseCheck &chk)
{
    if (src.failed()) {
        ErrorCode c = src.error().code();
        chk.require(c == ErrorCode::Data || c == ErrorCode::Io,
                    std::string("ftr reader error is ") +
                        errorCodeName(c) + ", want data or io");
        chk.require(!src.error().text().empty(),
                    "ftr reader error has empty text");
    } else if (mode == ErrorMode::Skip) {
        chk.require(src.damageEvents() <= max_skips,
                    "damage-event count exceeds the policy cap "
                    "without an error");
    }
    if (mode == ErrorMode::FailFast) {
        chk.require(src.skippedRecords() == 0,
                    "fail-fast ftr reader skipped records");
        chk.require(src.damageEvents() == 0,
                    "fail-fast ftr reader tolerated damage");
    }
}

/** Write a small trace as ftr with seeded frame sizing; returns the
 *  record count (and flags a violation on a writer failure). */
std::uint64_t
writeSmallFtr(const trace::AtumLikeConfig &cfg,
              const std::string &path, std::uint32_t frame_records,
              CaseCheck &chk)
{
    trace::AtumLikeGenerator gen(cfg);
    trace::FtrWriter::Options wopt;
    wopt.frame_records = frame_records;
    Expected<std::uint64_t> wrote = trace::writeFtr(gen, path, wopt);
    if (!wrote.ok()) {
        chk.require(false,
                    "writeFtr failed: " + wrote.error().text());
        return 0;
    }
    return wrote.take();
}

/** Flip bytes of an ftr file (header protected): every body byte is
 *  CRC-covered, so non-skip modes must reject, and skip mode must
 *  resync with exact per-record damage accounting. */
void
caseFtrCorrupt(Scratch &scratch, std::uint64_t case_seed,
               CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x667472ULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);

    std::string path = scratch.file("fault.ftr");
    std::uint64_t written =
        writeSmallFtr(cfg, path, 1 + rng.below(64), chk);
    if (written == 0)
        return;

    unsigned flips = 1 + rng.below(8);
    exec::FaultInjector::corruptBytes(path, case_seed ^ 0xf7fULL,
                                      flips,
                                      /*skip=*/trace::ftr::kHeaderBytes);

    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    trace::FtrOptions fopt;
    fopt.prefetch = rng.below(2) == 0;
    trace::FtrTraceSource src(path, policy, fopt);

    std::uint64_t streamed = drainBounded(src, written, chk);
    checkFtrContract(src, policy.mode, policy.max_skips, chk);
    chk.require(streamed + src.skippedRecords() <= written,
                "corrupt ftr reader invented records");
    if (policy.mode != ErrorMode::Skip)
        chk.require(src.failed(),
                    "a bit-flipped ftr body passed CRC validation");
    else
        chk.require(streamed + src.skippedRecords() == written,
                    "skip-mode ftr reader lost records without "
                    "accounting for them (" +
                        std::to_string(streamed) + " streamed + " +
                        std::to_string(src.skippedRecords()) +
                        " skipped of " + std::to_string(written) +
                        ")");

    // reset() must replay the identical outcome (prefetch restarts).
    src.reset();
    std::uint64_t again = drainBounded(src, written, chk);
    chk.require(again == streamed,
                "reset() changed the streamed record count (" +
                    std::to_string(streamed) + " then " +
                    std::to_string(again) + ")");
}

/** Truncate an ftr file at a random byte: non-skip modes must
 *  reject (the footer is always damaged), skip mode must rebuild
 *  the index and account for every lost record. */
void
caseFtrTruncate(Scratch &scratch, std::uint64_t case_seed,
                CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x667431ULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);

    std::string path = scratch.file("trunc.ftr");
    std::uint64_t written =
        writeSmallFtr(cfg, path, 1 + rng.below(64), chk);
    if (written == 0)
        return;
    std::uint64_t full = fs::file_size(path);
    std::uint64_t keep = rng.below(static_cast<std::uint32_t>(full));
    exec::FaultInjector::truncateFile(path, keep);

    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    trace::FtrOptions fopt;
    fopt.prefetch = rng.below(2) == 0;
    trace::FtrTraceSource src(path, policy, fopt);

    std::uint64_t streamed = drainBounded(src, written, chk);
    checkFtrContract(src, policy.mode, policy.max_skips, chk);
    if (policy.mode != ErrorMode::Skip) {
        chk.require(src.failed(),
                    "truncated ftr file was not rejected (keep=" +
                        std::to_string(keep) + "/" +
                        std::to_string(full) + ")");
    } else if (keep < trace::ftr::kHeaderBytes) {
        chk.require(src.failed(),
                    "an ftr file cut inside its header was "
                    "accepted");
    } else {
        chk.require(!src.failed(),
                    "skip-mode reader rejected a recoverable "
                    "truncation: " + src.error().text());
        chk.require(streamed + src.skippedRecords() == written,
                    "skip-mode ftr reader miscounted a torn tail (" +
                        std::to_string(streamed) + " streamed + " +
                        std::to_string(src.skippedRecords()) +
                        " skipped of " + std::to_string(written) +
                        ")");
    }
}

/** Tear the footer off — half the cases also zero the header's
 *  record total, the exact shape a writer killed before finish()
 *  leaves behind. Fail-fast must reject at open, skip mode must
 *  rebuild the index by scanning (deriving the total from the
 *  frames when the header's is unpatched) and then replay the
 *  stream bit-identically, zero records skipped. */
void
caseFtrTornFooter(Scratch &scratch, std::uint64_t case_seed,
                  CaseCheck &chk)
{
    Pcg32 rng(case_seed, /*stream=*/0x667432ULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);

    std::string path = scratch.file("torn.ftr");
    std::uint64_t written =
        writeSmallFtr(cfg, path, 1 + rng.below(64), chk);
    if (written == 0)
        return;
    std::uint64_t torn = exec::FaultInjector::tearFooter(path);
    chk.require(torn != 0, "tearFooter found no footer to remove");
    if (rng.below(2) == 0)
        chk.require(exec::FaultInjector::unpatchHeader(path),
                    "unpatchHeader found no valid ftr header");

    ErrorPolicy ff;
    ff.mode = ErrorMode::FailFast;
    trace::FtrTraceSource strict_src(path, ff);
    chk.require(strict_src.failed() &&
                    strict_src.error().code() == ErrorCode::Data,
                "fail-fast reader accepted a torn-off footer");

    ErrorPolicy sk;
    sk.mode = ErrorMode::Skip;
    trace::FtrOptions fopt;
    fopt.prefetch = rng.below(2) == 0;
    trace::FtrTraceSource src(path, sk, fopt);
    chk.require(src.indexRebuilt(),
                "skip-mode reader did not rebuild the torn footer");

    trace::AtumLikeGenerator ref(cfg);
    ref.reset();
    trace::MemRef a, b;
    std::uint64_t n = 0;
    bool same = true;
    while (same && src.next(a)) {
        same = ref.next(b) && a.addr == b.addr && a.type == b.type &&
               a.pid == b.pid;
        ++n;
    }
    chk.require(same && n == written,
                "rebuilt index did not replay the stream "
                "bit-identically (" + std::to_string(n) + " of " +
                    std::to_string(written) + " records)");
    chk.require(!src.failed(),
                "torn-footer replay failed: " + src.error().text());
    chk.require(src.skippedRecords() == 0 && src.damageEvents() == 0,
                "intact frames after a torn footer were counted as "
                "damage");
    chk.require(src.totalRecords() == written,
                "rebuilt index reports " +
                    std::to_string(src.totalRecords()) + " records, "
                    "the writer flushed " + std::to_string(written));
}

/** A device that returns EOF early (file shrank / short read): the
 *  reader must report it against the header's claimed count, never
 *  silently deliver a prefix as a complete stream. */
void
caseIoShortRead(Scratch &scratch, std::uint64_t case_seed,
                CaseCheck &chk, std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x736872ULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);
    trace::AtumLikeGenerator gen(cfg);

    std::string path = scratch.file("short.bin");
    std::uint64_t written = trace::writeBin(gen, path);
    std::uint64_t full = 16 + written * 6;

    IoFaultPlan plan;
    plan.short_read_at = rng.below(static_cast<std::uint32_t>(full));
    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    std::unique_ptr<trace::TraceSource> src =
        trace::openTraceFileWithFaults(path, policy, plan);
    faults += 1;

    std::uint64_t streamed = drainBounded(*src, written, chk);
    chk.require(src->failed(),
                "a short read below the claimed record count went "
                "unreported (short_read_at=" +
                    std::to_string(plan.short_read_at) + "/" +
                    std::to_string(full) + ")");
    ErrorCode c = src->error().code();
    chk.require(c == ErrorCode::Data || c == ErrorCode::Io,
                std::string("short-read error is ") +
                    errorCodeName(c) + ", want data or io");
    chk.require(src->skippedRecords() == 0,
                "a device fault was skipped; short reads are not "
                "skippable");
    if (plan.short_read_at >= 16)
        chk.require(streamed == (plan.short_read_at - 16) / 6,
                    "reader delivered " + std::to_string(streamed) +
                        " records before a short read at byte " +
                        std::to_string(plan.short_read_at));
}

/** A hard device error (EIO) mid-file: every reader and policy must
 *  surface a structured failure — badbit never masquerades as EOF,
 *  and skip mode never skips past it. */
void
caseIoError(Scratch &scratch, std::uint64_t case_seed,
            CaseCheck &chk, std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x65696fULL);
    std::uint64_t refs = 100 + rng.below(400);
    trace::AtumLikeConfig cfg = smallTrace(case_seed, refs);

    unsigned fmt = rng.below(3);
    std::string path;
    std::uint64_t written = 0;
    if (fmt == 0) {
        trace::AtumLikeGenerator gen(cfg);
        path = scratch.file("eio.din");
        written = gen.totalRefs();
        trace::writeDin(gen, path);
    } else if (fmt == 1) {
        trace::AtumLikeGenerator gen(cfg);
        path = scratch.file("eio.bin");
        written = trace::writeBin(gen, path);
    } else {
        path = scratch.file("eio.ftr");
        written = writeSmallFtr(cfg, path, 1 + rng.below(64), chk);
        if (written == 0)
            return;
    }
    std::uint64_t full = fs::file_size(path);

    IoFaultPlan plan;
    plan.io_error_at = rng.below(static_cast<std::uint32_t>(full));
    const ErrorMode modes[] = {ErrorMode::FailFast, ErrorMode::Skip,
                               ErrorMode::Strict};
    ErrorPolicy policy;
    policy.mode = modes[rng.below(3)];
    std::unique_ptr<trace::TraceSource> src =
        trace::openTraceFileWithFaults(path, policy, plan);
    faults += 1;

    std::uint64_t streamed = drainBounded(*src, written, chk);
    chk.require(streamed <= written,
                "a failing device produced extra records");
    chk.require(src->failed(),
                "an injected device error (EIO at byte " +
                    std::to_string(plan.io_error_at) + " of " +
                    std::to_string(full) +
                    ") was swallowed; the stream ended as if clean");
    ErrorCode c = src->error().code();
    chk.require(c == ErrorCode::Data || c == ErrorCode::Io,
                std::string("device-error code is ") +
                    errorCodeName(c) + ", want data or io");
    chk.require(!src->error().text().empty(),
                "device-error text is empty");
}

/** The three-job mini sweep all sweep-fault cases run. */
std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = {mem::CacheGeometry(4096, 16, 1),
                     mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec s;
        s.kind = core::SchemeKind::Naive;
        spec.schemes.push_back(s);
        s.kind = core::SchemeKind::Mru;
        spec.schemes.push_back(s);
        spec.schemes.push_back(core::SchemeSpec::paperPartial(a));
        specs.push_back(spec);
    }
    return specs;
}

/** No-fault reference outputs from a plain runTrace() loop (no
 *  sweep machinery), encoded for bit-comparison. */
std::vector<std::string>
baselineOutputs(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &tcfg)
{
    std::vector<std::string> enc;
    for (const sim::RunSpec &spec : specs) {
        trace::AtumLikeGenerator gen(tcfg);
        enc.push_back(exec::encodeRunOutput(sim::runTrace(gen, spec)));
    }
    return enc;
}

/** Throw from inside a metered lookup of one job; the others must
 *  survive bit-identically. */
void
caseLookupThrow(std::uint64_t case_seed, CaseCheck &chk,
                std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x617564ULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);

    std::size_t bad = rng.below(3);
    exec::ThrowingAuditor auditor(1 + rng.below(500));
    specs[bad].auditor = &auditor;

    exec::SweepOptions opt;
    opt.jobs = 2;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    faults += 1;

    chk.require(run.jobs.size() == specs.size(),
                "sweep dropped job slots");
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const exec::JobResult &job = run.jobs[i];
        if (i == bad) {
            chk.require(job.status == exec::JobStatus::Failed,
                        "job with a throwing lookup did not fail");
            chk.require(job.error.code() == ErrorCode::Internal,
                        "lookup throw surfaced as " +
                            std::string(errorCodeName(
                                job.error.code())) +
                            ", want internal");
            chk.require(job.attempts == 1,
                        "non-transient failure was retried");
            continue;
        }
        chk.require(job.ok(), "sibling job " + std::to_string(i) +
                                  " was poisoned: " +
                                  job.error.text());
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "surviving job " + std::to_string(i) +
                            " is not bit-identical to the serial "
                            "run");
    }
    chk.require(!run.interrupted, "failure misreported as interrupt");
}

/** A transient (Io) first-attempt failure must be retried away. */
void
caseTransientRetry(std::uint64_t case_seed, CaseCheck &chk,
                   std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x726574ULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);

    exec::FaultPlan plan;
    plan.seed = case_seed;
    plan.fail_job = static_cast<std::int64_t>(rng.below(3));
    plan.fail_attempts = 1;
    plan.transient = true;
    exec::FaultInjector inject(plan);

    exec::SweepOptions opt;
    opt.jobs = 1 + rng.below(2);
    opt.max_retries = 1;
    opt.inject = &inject;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    faults += inject.injected();

    chk.require(inject.injected() == 1,
                "injector delivered " +
                    std::to_string(inject.injected()) +
                    " faults, want 1");
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const exec::JobResult &job = run.jobs[i];
        chk.require(job.ok(), "job " + std::to_string(i) +
                                  " failed after retry: " +
                                  job.error.text());
        if (!job.ok())
            continue;
        unsigned want_attempts =
            i == static_cast<std::size_t>(plan.fail_job) ? 2 : 1;
        chk.require(job.attempts == want_attempts,
                    "job " + std::to_string(i) + " took " +
                        std::to_string(job.attempts) +
                        " attempts, want " +
                        std::to_string(want_attempts));
        chk.require(exec::encodeRunOutput(job.output) == want[i],
                    "retried sweep output " + std::to_string(i) +
                        " is not bit-identical to the serial run");
    }
}

/** Cancel a journaled sweep mid-run, then resume: the merged result
 *  must be bit-identical to the uninterrupted run. */
void
caseCancelResume(Scratch &scratch, std::uint64_t case_seed,
                 CaseCheck &chk, std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x726573ULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);
    std::string journal = scratch.file("fault.journal");
    std::uint64_t hash = exec::hashSpecs(specs, tcfg.seed);

    // Phase 1: serial (deterministic cancel point), journaled.
    exec::CancelToken token;
    exec::FaultPlan plan;
    plan.seed = case_seed;
    plan.cancel_after = static_cast<std::int64_t>(1 + rng.below(2));
    exec::FaultInjector inject(plan, &token);

    exec::SweepOptions opt1;
    opt1.jobs = 1;
    opt1.inject = &inject;
    opt1.cancel = &token;
    opt1.journal_path = journal;
    opt1.spec_hash = hash;
    exec::SweepResult first = exec::runSweepChecked(specs, tcfg, opt1);
    faults += 1;

    std::uint64_t done = static_cast<std::uint64_t>(
        first.jobs.size() - first.cancelled());
    chk.require(first.interrupted, "cancelled sweep not interrupted");
    chk.require(done ==
                    static_cast<std::uint64_t>(plan.cancel_after),
                "serial sweep completed " + std::to_string(done) +
                    " jobs before honoring a cancel after " +
                    std::to_string(plan.cancel_after));

    // Phase 2: resume; only the missing jobs may run.
    exec::SweepOptions opt2;
    opt2.jobs = 1 + rng.below(2);
    opt2.resume_path = journal;
    opt2.spec_hash = hash;
    exec::SweepResult second = exec::runSweepChecked(specs, tcfg, opt2);

    chk.require(second.resumed == done,
                "resume restored " + std::to_string(second.resumed) +
                    " jobs, journal held " + std::to_string(done));
    chk.require(!second.interrupted && second.failures() == 0,
                "resumed sweep did not complete cleanly");
    for (std::size_t i = 0; i < second.jobs.size(); ++i) {
        const exec::JobResult &job = second.jobs[i];
        chk.require(job.ok(),
                    "resumed job " + std::to_string(i) + " failed");
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "resumed output " + std::to_string(i) +
                            " is not bit-identical to the "
                            "uninterrupted run");
    }
}

/**
 * Wedge one job mid-stream (it ignores checkpoints and only a
 * delivered cancel releases it). The watchdog must cut it loose:
 * exactly that job TimedOut with the spec hash in its error, a stall
 * report filed, siblings bit-identical — and a journal resume then
 * completes the missing slot byte-identically to the clean run.
 */
void
caseHang(Scratch &scratch, std::uint64_t case_seed,
         std::uint64_t job_timeout_ns, CaseCheck &chk,
         std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x68616e67ULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);
    std::string journal = scratch.file("hang.journal");
    std::uint64_t hash = exec::hashSpecs(specs, tcfg.seed);

    std::size_t bad = rng.below(3);
    exec::FaultPlan plan;
    plan.seed = case_seed;
    plan.runaway = exec::RunawayKind::Hang;
    plan.runaway_job = static_cast<std::int64_t>(bad);
    plan.runaway_at = 100 + rng.below(1000);
    exec::FaultInjector inject(plan);

    exec::SweepOptions opt;
    opt.jobs = 2;
    opt.max_retries = 0; // a retried hang just hangs again
    opt.inject = &inject;
    opt.job_timeout_ns =
        job_timeout_ns != 0 ? job_timeout_ns : 50ull * 1000 * 1000;
    opt.watchdog.sample_ns = 1000 * 1000;
    opt.watchdog.log = false;
    opt.journal_path = journal;
    opt.spec_hash = hash;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    faults += 1;

    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const exec::JobResult &job = run.jobs[i];
        if (i == bad) {
            chk.require(job.status == exec::JobStatus::TimedOut,
                        std::string("hung job is ") +
                            exec::jobStatusName(job.status) +
                            ", want timed-out");
            chk.require(job.error.code() == ErrorCode::Timeout,
                        std::string("hung job error is ") +
                            errorCodeName(job.error.code()) +
                            ", want timeout");
            chk.require(mentionsSpecHash(job.error),
                        "timed-out job error lacks the spec hash: " +
                            job.error.text());
            chk.require(job.attempts == 1,
                        "hung job was retried with max_retries=0");
            continue;
        }
        chk.require(job.ok(), "sibling job " + std::to_string(i) +
                                  " was poisoned by the hang: " +
                                  job.error.text());
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "sibling of a hung job is not bit-identical "
                        "to the serial run");
    }
    bool saw_stall = false;
    for (const exec::StallReport &s : run.stalls)
        saw_stall = saw_stall || s.job == bad;
    chk.require(saw_stall,
                "watchdog filed no stall report for the hung job");
    chk.require(!run.interrupted,
                "timeout misreported as an interrupt");

    // Resume without the injector: only the killed slot re-runs, and
    // the merged result matches the clean run byte for byte.
    exec::SweepOptions opt2;
    opt2.jobs = 1;
    opt2.resume_path = journal;
    opt2.spec_hash = hash;
    exec::SweepResult second = exec::runSweepChecked(specs, tcfg, opt2);
    chk.require(second.resumed == specs.size() - 1,
                "resume restored " + std::to_string(second.resumed) +
                    " jobs, journal should hold " +
                    std::to_string(specs.size() - 1));
    for (std::size_t i = 0; i < second.jobs.size(); ++i) {
        const exec::JobResult &job = second.jobs[i];
        chk.require(job.ok(), "resumed job " + std::to_string(i) +
                                  " failed: " + job.error.text());
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "resumed output " + std::to_string(i) +
                            " is not bit-identical to the clean run");
    }
}

/** A slow but progressing job must NOT be killed: the watchdog is
 *  armed, yet every slot completes on the first attempt with output
 *  bit-identical to the serial run. */
void
caseSlow(std::uint64_t case_seed, CaseCheck &chk,
         std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x736c6f77ULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);

    std::size_t bad = rng.below(3);
    exec::FaultPlan plan;
    plan.seed = case_seed;
    plan.runaway = exec::RunawayKind::Slow;
    plan.runaway_job = static_cast<std::int64_t>(bad);
    plan.runaway_at = rng.below(500);
    plan.slow_every = 64;
    plan.slow_ns = 20000;
    exec::FaultInjector inject(plan);

    exec::SweepOptions opt;
    opt.jobs = 1 + rng.below(2);
    opt.inject = &inject;
    opt.job_timeout_ns = 10ull * 1000 * 1000 * 1000; // generous 10s
    opt.watchdog.log = false;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    faults += 1;

    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const exec::JobResult &job = run.jobs[i];
        chk.require(job.ok() && job.attempts == 1,
                    "slow job " + std::to_string(i) +
                        " did not complete first try: " +
                        job.error.text());
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "slowed sweep output " + std::to_string(i) +
                            " is not bit-identical to the serial "
                            "run");
    }
    chk.require(run.stalls.empty(),
                "watchdog reported a stall for a progressing job");
}

/** A job ballooning past its memory budget must fail OverBudget on
 *  the first attempt (budgets are deterministic — never retried),
 *  with siblings bit-identical. */
void
caseOom(std::uint64_t case_seed, CaseCheck &chk,
        std::uint64_t &faults)
{
    Pcg32 rng(case_seed, /*stream=*/0x6f6f6dULL);
    trace::AtumLikeConfig tcfg = smallTrace(case_seed, 2000);

    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<std::string> want = baselineOutputs(specs, tcfg);

    std::size_t bad = rng.below(3);
    exec::FaultPlan plan;
    plan.seed = case_seed;
    plan.runaway = exec::RunawayKind::Oom;
    plan.runaway_job = static_cast<std::int64_t>(bad);
    plan.runaway_at = 100 + rng.below(1000);
    plan.oom_bytes = 64ull << 20;
    exec::FaultInjector inject(plan);

    exec::SweepOptions opt;
    opt.jobs = 1 + rng.below(2);
    opt.max_retries = 1; // must NOT be spent on a budget failure
    opt.inject = &inject;
    opt.job_mem_budget = 4ull << 20;
    exec::SweepResult run = exec::runSweepChecked(specs, tcfg, opt);
    faults += 1;

    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const exec::JobResult &job = run.jobs[i];
        if (i == bad) {
            chk.require(job.status == exec::JobStatus::OverBudget,
                        std::string("ballooning job is ") +
                            exec::jobStatusName(job.status) +
                            ", want over-budget");
            chk.require(job.error.code() == ErrorCode::Budget,
                        std::string("ballooning job error is ") +
                            errorCodeName(job.error.code()) +
                            ", want budget");
            chk.require(job.attempts == 1,
                        "deterministic budget failure was retried");
            chk.require(mentionsSpecHash(job.error),
                        "over-budget job error lacks the spec hash: " +
                            job.error.text());
            continue;
        }
        chk.require(job.ok(), "sibling job " + std::to_string(i) +
                                  " was poisoned by the balloon: " +
                                  job.error.text());
        if (job.ok())
            chk.require(exec::encodeRunOutput(job.output) == want[i],
                        "sibling of a ballooning job is not "
                        "bit-identical to the serial run");
    }
    chk.require(!run.interrupted,
                "budget failure misreported as an interrupt");
}

} // namespace

FaultCampaignSummary
runFaultCampaign(const FaultCampaignOptions &opt)
{
    FaultCampaignSummary sum;

    std::string dir = opt.scratch_dir;
    if (dir.empty()) {
        dir = (fs::temp_directory_path() /
               ("assoc_fault_" + std::to_string(::getpid())))
                  .string();
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        sum.failures.push_back(
            {0, "setup",
             "cannot create scratch directory " + dir + ": " +
                 ec.message()});
        return sum;
    }

    std::uint64_t begin = opt.have_only_case ? opt.only_case : 0;
    std::uint64_t end =
        opt.have_only_case ? opt.only_case + 1 : opt.iterations;
    for (std::uint64_t i = begin; i < end; ++i) {
        std::uint64_t case_seed =
            SplitMix64(opt.seed ^ (i * 0x9E3779B97F4A7C15ULL))
                .next();
        FaultKind kind = static_cast<FaultKind>(i % kFaultKinds);
        Scratch scratch(dir);
        CaseCheck chk;

        switch (kind) {
          case FaultKind::DinCorruptFailFast:
            caseDinCorrupt(scratch, case_seed, ErrorMode::FailFast,
                           chk);
            break;
          case FaultKind::DinCorruptSkip:
            caseDinCorrupt(scratch, case_seed, ErrorMode::Skip, chk);
            break;
          case FaultKind::DinCorruptStrict:
            caseDinCorrupt(scratch, case_seed, ErrorMode::Strict,
                           chk);
            break;
          case FaultKind::BinTruncate:
            caseBinTruncate(scratch, case_seed, chk);
            break;
          case FaultKind::BinCorrupt:
            caseBinCorrupt(scratch, case_seed, chk);
            break;
          case FaultKind::LookupThrow:
            caseLookupThrow(case_seed, chk, sum.faults_injected);
            break;
          case FaultKind::TransientRetry:
            caseTransientRetry(case_seed, chk, sum.faults_injected);
            break;
          case FaultKind::CancelResume:
            caseCancelResume(scratch, case_seed, chk,
                             sum.faults_injected);
            break;
          case FaultKind::Hang:
            caseHang(scratch, case_seed, opt.job_timeout_ns, chk,
                     sum.faults_injected);
            break;
          case FaultKind::Slow:
            caseSlow(case_seed, chk, sum.faults_injected);
            break;
          case FaultKind::Oom:
            caseOom(case_seed, chk, sum.faults_injected);
            break;
          case FaultKind::FtrCorrupt:
            caseFtrCorrupt(scratch, case_seed, chk);
            break;
          case FaultKind::FtrTruncate:
            caseFtrTruncate(scratch, case_seed, chk);
            break;
          case FaultKind::FtrTornFooter:
            caseFtrTornFooter(scratch, case_seed, chk);
            break;
          case FaultKind::IoShortRead:
            caseIoShortRead(scratch, case_seed, chk,
                            sum.faults_injected);
            break;
          case FaultKind::IoError:
            caseIoError(scratch, case_seed, chk,
                        sum.faults_injected);
            break;
        }
        ++sum.cases_run;

        if (!chk.violations.empty()) {
            FaultFailure f;
            f.index = i;
            f.kind = kindName(kind);
            f.message = chk.violations.front();
            sum.failures.push_back(f);
            if (opt.log) {
                *opt.log << "fault case " << i << " (" << f.kind
                         << "): " << chk.violations.size()
                         << " contract violation(s)\n";
                for (const std::string &v : chk.violations)
                    *opt.log << "  " << v << "\n";
                *opt.log << "  repro: fuzz_diff --inject-faults"
                         << " --seed=" << opt.seed
                         << " --config=" << i;
                if (opt.job_timeout_ns != 0)
                    *opt.log << " --job-timeout="
                             << opt.job_timeout_ns << "ns";
                *opt.log << "\n";
            }
            if (sum.failures.size() >= opt.max_failures)
                break;
        }
    }

    fs::remove_all(dir, ec); // best-effort scratch cleanup
    return sum;
}

} // namespace check
} // namespace assoc
