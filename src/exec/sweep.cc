#include "exec/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <system_error>
#include <thread>

#include "exec/fault.h"
#include "exec/journal.h"
#include "trace/ftr_reader.h"
#include "util/fnv.h"
#include "util/logging.h"

namespace assoc {
namespace exec {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::Cancelled: return "cancelled";
      case JobStatus::TimedOut: return "timed-out";
      case JobStatus::OverBudget: return "over-budget";
    }
    return "unknown";
}

TraceFactory
atumTraceFactory(const trace::AtumLikeConfig &cfg)
{
    return [cfg](std::size_t) {
        return std::make_unique<trace::AtumLikeGenerator>(cfg);
    };
}

TraceFactory
fileTraceFactory(const std::string &path, ErrorPolicy policy)
{
    // Each job opens its own reader: jobs run on worker threads, and
    // TraceSource instances are single-threaded by contract. Open
    // failures surface through the source's sticky error when the
    // job first streams it, which routes through the normal
    // per-job retry/failure machinery.
    return [path, policy](std::size_t) {
        return trace::openTraceFile(path, policy);
    };
}

namespace {

/** The workers runJobs() starts for @p jobs jobs at @p threads. */
unsigned
workerCount(unsigned threads, std::size_t jobs)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(threads, jobs));
}

} // namespace

void
runJobs(std::vector<std::function<void()>> jobs, unsigned threads,
        ProgressMeter *progress)
{
    threads = workerCount(threads, jobs.size());

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex
    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            try {
                jobs[i]();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
            if (progress)
                progress->tick();
        }
    };

    // Reserved up front: once a worker runs, only the thread
    // constructor below may throw, and its failure is handled.
    std::vector<std::thread> workers;
    workers.reserve(threads);
    try {
        while (threads > 1 && workers.size() < threads)
            workers.emplace_back(work);
    } catch (const std::system_error &e) {
        // Out of threads: whoever did start drains the cursor.
        warn("runJobs: started " + std::to_string(workers.size()) +
             " of " + std::to_string(threads) + " workers: " +
             e.what());
    }
    if (workers.empty())
        work(); // one worker: inline, in order, on this thread
    for (std::thread &w : workers)
        w.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

trace::VectorTraceSource::Buffer
synthesizeAtumTrace(const trace::AtumLikeConfig &cfg, unsigned threads,
                    std::vector<std::size_t> *part_starts)
{
    const std::uint64_t total = trace::AtumLikeGenerator(cfg).totalRefs();
    // Below this bound the total neither wraps nor passes max_size(),
    // so every slice lies inside the buffer.
    if (cfg.refs_per_segment >=
        std::vector<trace::MemRef>().max_size() / cfg.segments)
        throw std::bad_alloc();
    auto refs =
        std::make_shared<trace::RefArray>(static_cast<std::size_t>(total));
    // Segment k starts after k segments and their flush markers.
    const bool flush = cfg.flush_between_segments;
    const std::size_t stride =
        static_cast<std::size_t>(cfg.refs_per_segment + (flush ? 1 : 0));
    if (part_starts)
        part_starts->assign(flush ? cfg.segments : 1, 0);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cfg.segments);
    for (unsigned k = 0; k < cfg.segments; ++k)
        jobs.push_back([&cfg, &refs, part_starts, flush, stride, k] {
            trace::MemRef *out = refs->data() + k * stride;
            trace::AtumLikeGenerator(cfg).emitSegment(k, out);
            if (flush && k + 1 < cfg.segments) {
                out[cfg.refs_per_segment] = trace::MemRef::flush();
                if (part_starts)
                    (*part_starts)[k + 1] = (k + 1) * stride;
            }
        });
    runJobs(std::move(jobs), threads);
    return refs;
}

namespace {

/** A trace held in memory for a whole sweep. */
struct SharedTrace
{
    /** The records (null = each job streams). */
    trace::VectorTraceSource::Buffer refs;
    /** Where the level-one filter cuts the trace: 0, then positions
     *  just after flush markers, where a level one is cold again. */
    std::vector<std::size_t> part_starts;
    /** The buffer's charge on the sweep-global budget. */
    MemCharge charge;
    /** The workers that filled the buffer. */
    unsigned workers = 0;
};

/** Runs of frames per decode worker: runs end unevenly, so a few
 *  per worker keep every worker busy to the end. */
constexpr std::size_t kRunsPerWorker = 4;

/** Fewest references in a decoded file's part. Each part is a filter
 *  job that starts a cold level one and may leave one request chunk
 *  partly used, so a file with a flush marker every few references is
 *  cut only at the markers that close this many; a level one is cold
 *  after any marker, so fewer cuts change no request. */
constexpr std::size_t kMinPartRefs = std::size_t{1} << 16;

/** Where the file and the stream must be after indexed frame @p i:
 *  the next frame's place, or the footer and the record total. */
trace::ftr::IndexEntry
frameEnd(const std::vector<trace::ftr::IndexEntry> &index, std::size_t i,
         std::uint64_t data_end, std::uint64_t total)
{
    return i + 1 < index.size() ? index[i + 1]
                                : trace::ftr::IndexEntry{data_end, total};
}

/**
 * Whether the frames of @p index can tile the frame data and the
 * stream: the first at record 0 right after the file header, and
 * each one's place, up to the footer at @p data_end and the record
 * @p total, far enough on to hold its header, its payload CRC and a
 * payload byte per record. Every slice then lies inside a buffer of
 * @p total records, and that buffer is smaller than the file. Each
 * frame's own header is held to its place as it is decoded.
 */
bool
indexTiles(const std::vector<trace::ftr::IndexEntry> &index,
           std::uint64_t data_end, std::uint64_t total)
{
    namespace ftr = trace::ftr;
    if (index.empty() || index[0].offset != ftr::kHeaderBytes ||
        index[0].start_index != 0)
        return false;
    for (std::size_t i = 0; i < index.size(); ++i) {
        const ftr::IndexEntry end = frameEnd(index, i, data_end, total);
        if (end.start_index < index[i].start_index ||
            end.offset < index[i].offset ||
            end.offset - index[i].offset <
                ftr::kFrameHeaderBytes + ftr::kFrameCrcBytes +
                    (end.start_index - index[i].start_index))
            return false;
    }
    return true;
}

/**
 * Decode the .ftr file @p path once into a shared buffer when it is
 * clean and fully indexed (see runSweepChecked() over a path),
 * charged to @p budget (the sweep-global one; null = no accounting)
 * before anything is allocated. Each run of frames is one runJobs()
 * job on @p threads workers, with a reader of its own whose payload
 * scratch is charged to @p budget too, and it stops when @p cancel
 * trips between frames. An empty SharedTrace means "stream instead".
 * Throws std::bad_alloc when the buffer cannot be allocated.
 */
SharedTrace
decodeShared(const std::string &path, MemBudget *budget,
             const CancelToken *cancel, unsigned threads)
{
    namespace ftr = trace::ftr;
    Expected<trace::TraceFormat> format = trace::detectTraceFormat(path);
    if (!format.ok() || format.value() != trace::TraceFormat::Ftr)
        return {};
    // Opened fail-fast: a footer that would need rebuilding refuses
    // at once, and silently; each streaming job warns for itself.
    const trace::FtrTraceSource file(path);
    const std::vector<ftr::IndexEntry> &index = file.frameIndex();
    const std::uint64_t total = file.totalRecords();
    if (file.failed() || file.indexRebuilt() || total == 0 ||
        !indexTiles(index, file.dataEnd(), total))
        return {};
    Expected<MemCharge> charge = MemCharge::charge(
        budget, total * sizeof(trace::MemRef), "shared trace");
    if (!charge.ok())
        return {};
    auto refs =
        std::make_shared<trace::RefArray>(static_cast<std::size_t>(total));

    const std::size_t frames = index.size();
    const std::size_t most_runs =
        kRunsPerWorker * workerCount(threads, frames);
    const std::size_t per_run = (frames + most_runs - 1) / most_runs;
    const std::size_t runs = (frames + per_run - 1) / per_run;
    // Per run: the position after each flush marker in its slice.
    std::vector<std::vector<std::size_t>> after_flush(runs);
    std::atomic<bool> failed{false};
    std::vector<std::function<void()>> jobs;
    jobs.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r)
        jobs.push_back([&, r] {
            trace::FtrFrameReader reader(
                std::make_unique<std::ifstream>(path, std::ios::binary),
                path);
            reader.setMemBudget(budget);
            const std::size_t last = std::min(frames, (r + 1) * per_run);
            for (std::size_t i = r * per_run; i < last; ++i) {
                if (failed || !reader.opened() ||
                    (cancel && cancel->cancelled())) {
                    failed = true;
                    return;
                }
                const ftr::IndexEntry end =
                    frameEnd(index, i, file.dataEnd(), total);
                ftr::FrameHeader fh;
                Error hard;
                const auto into = [&](const ftr::FrameHeader &h,
                                      Error &refused) -> trace::MemRef * {
                    // The frame must fill exactly its place.
                    if (h.start_index != index[i].start_index ||
                        h.start_index + h.record_count != end.start_index ||
                        index[i].offset + ftr::kFrameHeaderBytes +
                                h.payload_len + ftr::kFrameCrcBytes !=
                            end.offset) {
                        refused = Error::data("frame out of its place");
                        return nullptr;
                    }
                    return refs->data() + h.start_index;
                };
                if (reader.readFrame(index[i].offset, end.offset, fh, into,
                                     hard) !=
                    trace::FtrFrameReader::Check::Good) {
                    failed = true;
                    return;
                }
                for (std::size_t p = index[i].start_index;
                     p < end.start_index; ++p)
                    if ((*refs)[p].isFlush())
                        after_flush[r].push_back(p + 1);
            }
        });
    runJobs(std::move(jobs), threads);
    if (failed)
        return {};

    SharedTrace shared;
    shared.part_starts.push_back(0);
    for (const std::vector<std::size_t> &starts : after_flush)
        for (std::size_t start : starts)
            if (start - shared.part_starts.back() >= kMinPartRefs)
                shared.part_starts.push_back(start);
    shared.refs = std::move(refs);
    shared.charge = charge.take();
    shared.workers = workerCount(threads, runs);
    return shared;
}

} // namespace

trace::VectorTraceSource::Buffer
decodeFtrTrace(const std::string &path, unsigned threads,
               std::vector<std::size_t> *part_starts)
{
    SharedTrace shared = decodeShared(path, nullptr, nullptr, threads);
    if (part_starts)
        *part_starts = std::move(shared.part_starts);
    return shared.refs;
}

namespace {

/** Map any exception from one attempt onto an Error. */
Error
errorFromAttempt()
{
    try {
        throw;
    } catch (const ErrorException &e) {
        return e.error();
    } catch (const PanicError &e) {
        return Error::internal(e.what());
    } catch (const FatalError &e) {
        return Error::usage(e.what());
    } catch (const std::exception &e) {
        return Error::internal(e.what());
    } catch (...) {
        return Error::internal("unknown exception");
    }
}

/** Shared runaway-defense state for one checked sweep. */
struct SweepGuards
{
    /** Sweep-wide token: chains to the caller's (SIGINT, explicit
     *  cancel) and carries the sweep deadline. Null when the sweep
     *  has no cancellation sources at all. */
    const CancelToken *cancel = nullptr;
    /** Global budget (null when no budget flags were given). */
    MemBudget *budget = nullptr;
    /** Deadline enforcement (null when no deadline flags). */
    Watchdog *watchdog = nullptr;
};

/** Classify a failed attempt's error into a slot status. */
JobStatus
statusFromError(const Error &e)
{
    switch (e.code()) {
      case ErrorCode::Cancelled: return JobStatus::Cancelled;
      case ErrorCode::Timeout: return JobStatus::TimedOut;
      case ErrorCode::Budget: return JobStatus::OverBudget;
      default: return JobStatus::Failed;
    }
}

/** Run one slot with retry, timing, deadline and fault hooks. With
 *  @p requests, each attempt replays that level-one request stream
 *  (sim::runTrace's filtered replay). */
JobResult
runOneJob(const std::vector<sim::RunSpec> &specs,
          const TraceFactory &make_trace, const SweepOptions &opts,
          const SweepGuards &guards, std::size_t i,
          const mem::L2RequestStream *requests)
{
    JobResult res;
    const std::uint64_t spec_hash = hashSpec(specs[i]);
    unsigned attempts_allowed = 1 + opts.max_retries;
    for (unsigned attempt = 1; attempt <= attempts_allowed; ++attempt) {
        if (guards.cancel && guards.cancel->cancelled()) {
            // The sweep as a whole is over: deadline (TimedOut) or
            // cancellation (Cancelled). Keep an earlier attempt's
            // Failed status — it is more informative than "never
            // retried".
            if (res.status != JobStatus::Failed) {
                bool timed = guards.cancel->reason() ==
                             CancelToken::Reason::TimedOut;
                res.status = timed ? JobStatus::TimedOut
                                   : JobStatus::Cancelled;
                Error e = timed
                              ? Error::timeout(
                                    "sweep deadline exceeded before "
                                    "job " + std::to_string(i) +
                                    " attempt " +
                                    std::to_string(attempt))
                              : Error::cancelled(
                                    "job " + std::to_string(i) +
                                    " cancelled before attempt " +
                                    std::to_string(attempt));
                if (timed)
                    e.withContext("job spec hash " +
                                  hex16(spec_hash));
                res.error = std::move(e);
            }
            return res;
        }

        // Per-attempt token: the job deadline, chained to the
        // sweep-wide token. Fresh each attempt so a retried timeout
        // gets a full timeslice again.
        CancelToken token;
        token.setParent(guards.cancel);
        if (opts.job_timeout_ns != 0)
            token.setDeadline(Deadline::after(opts.job_timeout_ns));
        MemBudget job_budget(opts.job_mem_budget, guards.budget);
        MemBudget *budget =
            (opts.job_mem_budget != 0 || guards.budget)
                ? &job_budget
                : nullptr;
        sim::RunSpec spec = specs[i];
        spec.cancel = &token;
        spec.checkpoint_every = SweepOptions::checkpoint_every;
        spec.budget = budget;

        if (guards.watchdog)
            guards.watchdog->arm(i, &token, token.deadline(),
                                 spec_hash,
                                 "attempt " + std::to_string(attempt),
                                 budget);

        res.attempts = attempt;
        auto t0 = std::chrono::steady_clock::now();
        try {
            if (opts.inject)
                opts.inject->onJobStart(i, attempt);
            std::unique_ptr<trace::TraceSource> src = make_trace(i);
            src->setCancelToken(&token);
            if (budget)
                src->setMemBudget(budget);
            if (opts.inject)
                src = opts.inject->wrapJobTrace(std::move(src), i,
                                                &token, budget);
            res.output = requests
                             ? sim::runTrace(*src, spec, *requests)
                             : sim::runTrace(*src, spec);
            res.filtered = requests != nullptr;
            res.status = JobStatus::Ok;
            res.error = Error();
        } catch (...) {
            Error e = errorFromAttempt().withContext(
                "job " + std::to_string(i) + " attempt " +
                std::to_string(attempt));
            res.status = statusFromError(e);
            if (res.status == JobStatus::TimedOut ||
                res.status == JobStatus::OverBudget)
                e.withContext("job spec hash " + hex16(spec_hash));
            res.error = std::move(e);
        }
        if (guards.watchdog)
            guards.watchdog->disarm(i);
        auto t1 = std::chrono::steady_clock::now();
        res.wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        if (res.ok())
            break;
        if (res.status == JobStatus::Cancelled)
            break; // the sweep is being torn down; don't re-run
        if (res.status == JobStatus::OverBudget)
            break; // deterministic: the same spec blows the same budget
        if (res.status == JobStatus::TimedOut)
            continue; // retryable under max_retries (load may clear)
        if (!res.error.transient())
            break;
    }
    if (opts.inject)
        opts.inject->onJobDone(i);
    return res;
}

/**
 * Synthesize @p cfg's stream once into an immutable buffer, charged
 * to @p budget (the sweep-global one; null = no accounting) before
 * anything is allocated, and filled by synthesizeAtumTrace() on
 * @p threads workers; its parts are its segments. An empty
 * SharedTrace means "stream instead": the generator rejects the
 * config (each job then fails with the same error, exactly as when
 * streaming), or the budget or the allocator refuses the buffer (a
 * trace that is not addressable included).
 */
SharedTrace
shareAtumTrace(const trace::AtumLikeConfig &cfg, MemBudget *budget,
               unsigned threads)
{
    try {
        const std::uint64_t bytes = trace::AtumLikeGenerator(cfg).totalRefs() *
                                    sizeof(trace::MemRef);
        Expected<MemCharge> charge =
            MemCharge::charge(budget, bytes, "shared trace");
        if (!charge.ok())
            return {};
        SharedTrace shared;
        shared.refs = synthesizeAtumTrace(cfg, threads, &shared.part_starts);
        shared.charge = charge.take();
        shared.workers = workerCount(threads, cfg.segments);
        return shared;
    } catch (const FatalError &) {
        // The generator's config check (an ErrorException) or one of
        // its process models' checks failed.
    } catch (const std::bad_alloc &) {
    }
    return {};
}

/** Records per stream chunk: the most a segment's stream holds
 *  allocated but unused. */
constexpr std::size_t kRequestChunk = 1024;
constexpr std::uint64_t kRequestChunkBytes =
    kRequestChunk * sizeof(mem::L2Request);

/** One level one's requests over one stretch of the trace. */
struct StreamPart
{
    mem::L2RequestStream chunks;
    std::vector<MemCharge> charges; ///< one per chunk
};

/**
 * Run @p refs[begin, end) through a cold write-back level one of
 * geometry @p l1 and append its requests to @p part, charging each
 * chunk to @p budget before allocating it. @return false when the
 * budget refuses a chunk, or @p stop is set at a chunk boundary.
 */
bool
filterPart(const mem::CacheGeometry &l1, const trace::RefArray &refs,
           std::size_t begin,
           std::size_t end, MemBudget *budget,
           const std::atomic<bool> &stop, StreamPart &part)
{
    mem::LevelOne level_one(l1, mem::L1WritePolicy::WriteBack);
    std::vector<mem::L2Request> chunk;
    for (std::size_t pos = begin; pos < end; ++pos) {
        // A reference yields at most two requests.
        if (chunk.size() + 2 > chunk.capacity()) {
            if (stop)
                return false;
            Expected<MemCharge> c = MemCharge::charge(
                budget, kRequestChunkBytes, "level-one request stream");
            if (!c.ok())
                return false;
            part.charges.push_back(c.take());
            if (!chunk.empty())
                part.chunks.push_back(std::move(chunk));
            chunk = std::vector<mem::L2Request>();
            chunk.reserve(kRequestChunk);
        }
        level_one.access(refs[pos], static_cast<std::uint32_t>(pos),
                        chunk);
    }
    part.chunks.push_back(std::move(chunk));
    return true;
}

/** The bytes the largest hierarchies among the jobs left to run
 *  hold at once on @p threads workers. */
std::uint64_t
concurrentFootprint(const std::vector<sim::RunSpec> &specs,
                    const std::vector<bool> &have, unsigned threads)
{
    std::vector<std::uint64_t> bytes;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (have[i])
            continue;
        try {
            bytes.push_back(
                mem::TwoLevelHierarchy(specs[i].hier).footprintBytes());
        } catch (...) {
            // A hierarchy that cannot be built holds nothing: its job
            // fails alone.
        }
    }
    const std::size_t n = workerCount(threads, bytes.size());
    std::partial_sort(bytes.begin(), bytes.begin() + n, bytes.end(),
                      std::greater<>());
    return std::accumulate(bytes.begin(), bytes.begin() + n,
                           std::uint64_t{0});
}

/** The level-one request streams a sweep's jobs replay. */
struct LevelOneStreams
{
    /** Per spec: the stream its job replays (null = lockstep). */
    std::vector<const mem::L2RequestStream *> of;
    std::vector<mem::L2RequestStream> streams;
    /** Each chunk's charge on the sweep-global budget. */
    std::vector<MemCharge> charges;
    std::size_t jobs = 0;    ///< jobs given a stream
    std::size_t refused = 0; ///< level ones left in lockstep
    std::uint64_t requests = 0;
};

/**
 * Filter each level one that at least two of the jobs left to run
 * share (sim::levelOneDecoupled() specs, grouped by level-one
 * geometry) once over the shared trace @p refs, into an immutable
 * request stream. @p part_starts cuts the trace into parts, each
 * starting from a cold level one (0, then positions just after flush
 * markers); each level one and part is its own runJobs() job on
 * @p threads workers. A part may be empty. Every chunk is charged to
 * @p budget (the sweep-global one) before it is allocated. A
 * refused charge or a std::bad_alloc drops that level one's stream,
 * and its jobs replay the shared trace in lockstep.
 */
LevelOneStreams
filterLevelOnes(const std::vector<sim::RunSpec> &specs,
                const std::vector<bool> &have,
                const std::vector<std::size_t> &part_starts,
                const trace::RefArray &refs, MemBudget *budget,
                unsigned threads)
{
    LevelOneStreams out;
    out.of.assign(specs.size(), nullptr);
    // A request carries its reference's trace position in 32 bits.
    if (refs.size() > std::uint64_t{1} << 32)
        return out;

    struct Group
    {
        mem::CacheGeometry l1;
        std::vector<std::size_t> jobs;
    };
    std::vector<Group> groups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (have[i] || !sim::levelOneDecoupled(specs[i]))
            continue;
        auto g = std::find_if(groups.begin(), groups.end(),
                              [&](const Group &grp) {
                                  return grp.l1 == specs[i].hier.l1;
                              });
        if (g == groups.end())
            g = groups.insert(g, Group{specs[i].hier.l1, {}});
        g->jobs.push_back(i);
    }
    std::erase_if(groups,
                  [](const Group &g) { return g.jobs.size() < 2; });
    if (groups.empty())
        return out;

    const std::size_t parts = part_starts.size();
    std::vector<StreamPart> part(groups.size() * parts);
    std::unique_ptr<std::atomic<bool>[]> refused(
        new std::atomic<bool>[groups.size()]());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(part.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (std::size_t k = 0; k < parts; ++k)
            jobs.push_back([&, g, k] {
                const std::size_t end =
                    k + 1 < parts ? part_starts[k + 1] : refs.size();
                StreamPart &p = part[g * parts + k];
                bool ok = false;
                try {
                    ok = filterPart(groups[g].l1, refs, part_starts[k],
                                    end, budget, refused[g], p);
                } catch (...) {
                    // std::bad_alloc, or a level one the cache
                    // rejects: each of its jobs then fails alone.
                }
                if (!ok) {
                    refused[g] = true;
                    p = StreamPart(); // give the room back at once
                }
            });
    runJobs(std::move(jobs), threads);

    out.streams.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (refused[g]) {
            ++out.refused;
            continue;
        }
        mem::L2RequestStream &stream = out.streams.emplace_back();
        for (std::size_t k = 0; k < parts; ++k) {
            StreamPart &p = part[g * parts + k];
            for (std::vector<mem::L2Request> &c : p.chunks) {
                out.requests += c.size();
                stream.push_back(std::move(c));
            }
            for (MemCharge &c : p.charges)
                out.charges.push_back(std::move(c));
        }
        for (std::size_t i : groups[g].jobs)
            out.of[i] = &stream;
        out.jobs += groups[g].jobs.size();
    }
    return out;
}

/**
 * The input a sweep's jobs may share: builds its SharedTrace on the
 * sweep-global budget, the sweep's token and its workers.
 */
using ShareTrace = std::function<SharedTrace(
    MemBudget *budget, const CancelToken *cancel, unsigned threads)>;

/**
 * The checked sweep. With @p share (the input @p make_trace
 * streams), a sweep with at least two jobs left to run replays one
 * shared buffer instead, when @p share builds one; see the
 * runSweepChecked() overloads in sweep.h.
 */
SweepResult
runChecked(const std::vector<sim::RunSpec> &specs,
           const TraceFactory &make_trace, const ShareTrace &share,
           const SweepOptions &opts)
{
    SweepResult result;
    result.jobs.resize(specs.size());

    // Sweep-wide runaway defenses. The sweep token carries the
    // whole-sweep deadline and chains to the caller's token (SIGINT,
    // explicit cancel); per-job tokens chain to it in runOneJob.
    SweepGuards guards;
    CancelToken sweep_token;
    if (opts.cancel || opts.sweep_deadline_ns != 0) {
        sweep_token.setParent(opts.cancel);
        if (opts.sweep_deadline_ns != 0)
            sweep_token.setDeadline(
                Deadline::after(opts.sweep_deadline_ns));
        guards.cancel = &sweep_token;
    }
    MemBudget global_budget(opts.mem_budget);
    if (opts.mem_budget != 0 || opts.job_mem_budget != 0)
        guards.budget = &global_budget;

    // Restore finished slots from the resume journal, if any.
    std::vector<bool> have(specs.size(), false);
    if (!opts.resume_path.empty()) {
        Expected<JournalData> data =
            readJournal(opts.resume_path, guards.budget);
        if (!data)
            throwError(Error(data.error())
                           .withContext("resuming sweep from '" +
                                        opts.resume_path + "'"));
        if (data.value().spec_hash != opts.spec_hash)
            throwError(Error::data(
                "journal '" + opts.resume_path +
                "' was written for a different sweep (spec hash " +
                std::to_string(data.value().spec_hash) + " vs " +
                std::to_string(opts.spec_hash) + ")"));
        for (auto &[idx, out] : data.value().entries) {
            if (idx >= specs.size())
                continue; // stale entry from a larger sweep shape
            JobResult &slot = result.jobs[idx];
            slot.status = JobStatus::Ok;
            slot.output = std::move(out);
            slot.from_journal = true;
            slot.attempts = 0;
            have[idx] = true;
            ++result.resumed;
        }
    }

    // Generate (or read) once, replay many. The buffer is held until
    // the sweep returns and charged to the sweep-global budget only:
    // no job budget pays for it. Declared after global_budget, so
    // released before it.
    SharedTrace shared;
    const std::size_t remaining = static_cast<std::size_t>(
        std::count(have.begin(), have.end(), false));
    if (share && remaining >= 2 &&
        !(guards.cancel && guards.cancel->cancelled())) {
        const auto t0 = std::chrono::steady_clock::now();
        shared = share(guards.budget, guards.cancel, opts.jobs);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (shared.refs)
            result.shared_trace_bytes =
                shared.refs->size() * sizeof(trace::MemRef);
        if (shared.refs && opts.progress)
            opts.progress->note(
                "shared trace: " + std::to_string(shared.refs->size()) +
                " records, " + std::to_string(result.shared_trace_bytes) +
                " bytes, " + std::to_string(shared.workers) +
                " fill workers, " + std::to_string(ms) + " ms");
    }
    TraceFactory cursors;
    if (shared.refs)
        cursors = [refs = shared.refs](std::size_t) {
            return std::make_unique<trace::VectorTraceSource>(refs);
        };
    const TraceFactory &jobs_trace = shared.refs ? cursors : make_trace;

    // Simulate each shared level one once: its jobs replay only its
    // level-two requests. Held, and charged, until the sweep returns.
    // Under a limit the streams never take the room the jobs need:
    // the largest hierarchies that can run at once stay reserved
    // while the streams are filtered.
    LevelOneStreams streams;
    streams.of.assign(specs.size(), nullptr);
    MemCharge reserve;
    bool room = true;
    if (shared.refs && opts.mem_budget != 0) {
        Expected<MemCharge> c = MemCharge::charge(
            guards.budget, concurrentFootprint(specs, have, opts.jobs),
            "the jobs' hierarchies");
        room = c.ok();
        if (room)
            reserve = c.take();
    }
    if (shared.refs && room &&
        !(guards.cancel && guards.cancel->cancelled())) {
        const auto t0 = std::chrono::steady_clock::now();
        streams = filterLevelOnes(specs, have, shared.part_starts,
                                  *shared.refs, guards.budget, opts.jobs);
        reserve.release();
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const std::uint64_t bytes =
            streams.charges.size() * kRequestChunkBytes;
        result.request_stream_bytes = bytes;
        if (opts.progress && (streams.jobs != 0 || streams.refused != 0))
            opts.progress->note(
                "level-one streams: " +
                std::to_string(streams.streams.size()) + " (" +
                std::to_string(streams.jobs) + " jobs), " +
                std::to_string(streams.requests) +
                " requests, " + std::to_string(bytes) + " bytes, " +
                std::to_string(ms) + " ms" +
                (streams.refused != 0
                     ? ", " + std::to_string(streams.refused) +
                           " refused (lockstep)"
                     : std::string()));
    }

    // Open the journal we append new completions to. When both
    // --journal and --resume are given, the fresh journal also
    // receives the restored slots, producing a compacted, complete
    // checkpoint.
    JournalWriter writer;
    std::mutex journal_mutex;
    const std::string &sink = !opts.journal_path.empty()
                                  ? opts.journal_path
                                  : opts.resume_path;
    if (!sink.empty()) {
        bool append = opts.journal_path.empty();
        Error e = writer.open(sink, opts.spec_hash, specs.size(),
                              append);
        if (e.failed())
            throwError(std::move(e));
        if (!opts.journal_path.empty()) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (!have[i])
                    continue;
                Error ae = writer.append(i, result.jobs[i].output);
                if (ae.failed())
                    throwError(std::move(ae));
            }
        }
    }

    // Deadline enforcement. Scoped so the watchdog thread is joined
    // before the journal drain below: once jobs are done, nothing
    // can trip tokens or log stall lines concurrently with the
    // final flush.
    {
        std::unique_ptr<Watchdog> watchdog;
        if (opts.job_timeout_ns != 0 || opts.sweep_deadline_ns != 0) {
            watchdog = std::make_unique<Watchdog>(opts.watchdog);
            guards.watchdog = watchdog.get();
        }

        std::vector<std::function<void()>> jobs;
        jobs.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (have[i]) {
                if (opts.progress)
                    opts.progress->tick();
                continue;
            }
            jobs.push_back([&specs, &jobs_trace, &opts, &guards,
                            &result, &writer, &journal_mutex,
                            &streams, i] {
                JobResult r = runOneJob(specs, jobs_trace, opts,
                                        guards, i, streams.of[i]);
                if (r.ok() && writer.isOpen()) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    Error e = writer.append(i, r.output);
                    if (e.failed())
                        warn(e.text()); // the result itself is good
                }
                result.jobs[i] = std::move(r);
            });
        }

        // Jobs never throw (every attempt's exception is folded into
        // the slot), so runJobs' first-exception rethrow stays
        // dormant.
        runJobs(std::move(jobs), opts.jobs, opts.progress);

        if (watchdog)
            result.stalls = watchdog->reports();
    }

    // Drain: final flush + close under the journal mutex. A SIGINT
    // (or watchdog grace-period escalation) that lands while workers
    // are still appending cannot race this — appends hold the same
    // mutex, and the workers and the watchdog are joined by now.
    if (writer.isOpen()) {
        std::lock_guard<std::mutex> lock(journal_mutex);
        Error e = writer.close();
        if (e.failed())
            warn(e.text());
    }

    for (const JobResult &j : result.jobs)
        if (j.status == JobStatus::Cancelled)
            result.interrupted = true;
    return result;
}

} // namespace

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const TraceFactory &make_trace, const SweepOptions &opts)
{
    return runChecked(specs, make_trace, {}, opts);
}

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const trace::AtumLikeConfig &trace_cfg,
                const SweepOptions &opts)
{
    return runChecked(
        specs, atumTraceFactory(trace_cfg),
        [&trace_cfg](MemBudget *budget, const CancelToken *,
                     unsigned threads) {
            return shareAtumTrace(trace_cfg, budget, threads);
        },
        opts);
}

SweepResult
runSweepChecked(const std::vector<sim::RunSpec> &specs,
                const std::string &path, ErrorPolicy policy,
                const SweepOptions &opts)
{
    return runChecked(
        specs, fileTraceFactory(path, policy),
        [&path](MemBudget *budget, const CancelToken *cancel,
                unsigned threads) {
            try {
                return decodeShared(path, budget, cancel, threads);
            } catch (const std::bad_alloc &) {
                return SharedTrace();
            }
        },
        opts);
}

} // namespace exec
} // namespace assoc
