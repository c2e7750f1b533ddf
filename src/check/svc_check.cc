#include "check/svc_check.h"

#include <algorithm>
#include <exception>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/fnv.h"
#include "util/rng.h"

namespace assoc {
namespace check {

namespace {

/** Format "geom policy stripes threads ..." for failure reports. */
std::string
caseLabel(const SvcFuzzCase &c)
{
    std::ostringstream os;
    os << "svc " << c.geom.name() << " policy="
       << mem::replPolicyName(c.cfg.engine.policy)
       << " stripes=" << c.cfg.engine.max_stripes
       << " retries=" << c.cfg.engine.optimistic_retries
       << " salt=" << c.cfg.tenant_salt_bits
       << " threads=" << c.threads << " ops=" << c.ops_per_thread
       << "x" << c.threads << " blocks=" << c.block_space;
    return os.str();
}

/**
 * Replay one history event against the reference cache, mirroring
 * ConcurrentCache's op semantics exactly, and compare every
 * recorded field. Returns a non-empty message on mismatch.
 */
std::string
replayEvent(mem::WriteBackCache &ref, const svc::HistoryEvent &e)
{
    const svc::OpResult &op = e.op;
    std::ostringstream bad;
    unsigned probes = 0;
    int way = ref.probeRelaxed(op.block, &probes);
    bool hit = way >= 0;

    auto expect = [&](bool cond, const char *what) {
        if (!cond)
            bad << " " << what;
    };

    switch (op.kind) {
      case svc::OpKind::Probe:
        expect(op.hit == hit, "hit");
        expect(op.way == way, "way");
        expect(op.probes == probes, "probes");
        expect(!op.mutated, "mutated");
        break;
      case svc::OpKind::Lookup:
        expect(op.hit == hit, "hit");
        expect(op.way == way, "way");
        expect(op.probes == probes, "probes");
        expect(op.mutated == hit, "mutated");
        if (hit)
            ref.touch(op.set, way);
        break;
      case svc::OpKind::Fill:
        expect(op.probes == probes, "probes");
        expect(op.mutated, "mutated");
        if (hit) {
            expect(op.hit, "hit");
            expect(op.way == way, "way");
            expect(!op.filled, "filled");
            ref.touch(op.set, way);
            if (op.is_write)
                ref.setDirty(op.set, way);
        } else {
            expect(!op.hit, "hit");
            expect(op.filled, "filled");
            mem::FillResult f = ref.fill(op.block, op.is_write);
            expect(op.way == f.way, "way");
            expect(op.evicted == f.evicted, "evicted");
            expect(op.victim_block == f.victim_block, "victim");
            expect(op.victim_dirty == f.victim_dirty,
                   "victim_dirty");
        }
        break;
      case svc::OpKind::Invalidate:
        expect(op.hit == hit, "hit");
        expect(op.way == way, "way");
        expect(op.probes == probes, "probes");
        expect(op.mutated == hit, "mutated");
        if (hit) {
            bool vd = ref.invalidate(op.block);
            expect(op.victim_dirty == vd, "victim_dirty");
        }
        break;
      case svc::OpKind::Access:
        expect(op.hit == hit, "hit");
        expect(op.probes == probes, "probes");
        expect(op.mutated, "mutated");
        if (hit) {
            expect(op.way == way, "way");
            ref.touch(op.set, way);
            if (op.is_write)
                ref.setDirty(op.set, way);
        } else {
            expect(op.filled, "filled");
            mem::FillResult f = ref.fill(op.block, op.is_write);
            expect(op.way == f.way, "way");
            expect(op.evicted == f.evicted, "evicted");
            expect(op.victim_block == f.victim_block, "victim");
            expect(op.victim_dirty == f.victim_dirty,
                   "victim_dirty");
        }
        break;
    }

    std::string fields = bad.str();
    if (fields.empty())
        return "";
    std::ostringstream os;
    os << "replay mismatch (" << svc::opKindName(op.kind)
       << " tenant=" << e.tenant << " block=0x" << std::hex
       << op.block << std::dec << " set=" << op.set
       << " version=" << op.version << "): wrong" << fields;
    return os.str();
}

} // namespace

std::string
SvcFuzzCase::describe() const
{
    return caseLabel(*this);
}

SvcFuzzCase
sampleSvcCase(std::uint64_t seed, std::uint64_t index,
              unsigned threads_override)
{
    SvcFuzzCase c;
    Pcg32 rng(seed, 0x57c0 + index);
    c.case_seed = rng.next64();

    // Small, contended geometries: few sets, modest associativity.
    static const std::uint32_t kSets[] = {4, 8, 16, 32};
    static const std::uint32_t kAssoc[] = {1, 2, 4, 8, 16};
    std::uint32_t sets = kSets[rng.below(4)];
    std::uint32_t assoc = kAssoc[rng.below(5)];
    std::uint32_t block = rng.chance(0.5) ? 16 : 32;
    c.geom = mem::CacheGeometry(sets * assoc * block, block, assoc);

    static const mem::ReplPolicy kPolicies[] = {
        mem::ReplPolicy::Lru, mem::ReplPolicy::Fifo,
        mem::ReplPolicy::TreePlru};
    c.cfg.engine.policy = kPolicies[rng.below(3)];
    static const unsigned kStripes[] = {0, 0, 1, 2, 8};
    c.cfg.engine.max_stripes = kStripes[rng.below(5)];
    static const unsigned kRetries[] = {0, 2, 8};
    c.cfg.engine.optimistic_retries = kRetries[rng.below(3)];
    c.cfg.tenant_salt_bits = rng.chance(0.25) ? 2 : 0;

    c.threads =
        threads_override != 0 ? threads_override : 2 + rng.below(3);
    c.ops_per_thread = 500 + rng.below(1500);
    std::uint32_t capacity = sets * assoc;
    static const std::uint32_t kOver[] = {1, 2, 4};
    c.block_space = capacity * kOver[rng.below(3)];
    if (c.block_space < 2)
        c.block_space = 2;

    c.cfg.record_history = true;
    c.cfg.history_capacity =
        static_cast<std::size_t>(c.ops_per_thread);
    return c;
}

std::vector<SvcOpSpec>
svcOpStream(const SvcFuzzCase &c, unsigned thread)
{
    Pcg32 rng(c.case_seed, 0x0b5 + thread);
    std::vector<SvcOpSpec> ops;
    ops.reserve(c.ops_per_thread);
    for (std::uint64_t i = 0; i < c.ops_per_thread; ++i) {
        SvcOpSpec op;
        std::uint32_t k = rng.below(100);
        if (k < 30)
            op.kind = svc::OpKind::Probe;
        else if (k < 50)
            op.kind = svc::OpKind::Lookup;
        else if (k < 65)
            op.kind = svc::OpKind::Fill;
        else if (k < 75)
            op.kind = svc::OpKind::Invalidate;
        else
            op.kind = svc::OpKind::Access;
        op.block = rng.below(c.block_space);
        op.is_write = rng.chance(0.3);
        ops.push_back(op);
    }
    return ops;
}

void
checkSvcHistory(const mem::CacheGeometry &geom,
                mem::ReplPolicy policy, unsigned stripes,
                const std::vector<svc::HistoryEvent> &events,
                const mem::WriteBackCache *final_state,
                ViolationLog &log)
{
    // Bucket per stripe, then order each bucket by version with
    // mutations before the reads that observed their result.
    std::vector<std::vector<const svc::HistoryEvent *>> buckets(
        stripes);
    for (const svc::HistoryEvent &e : events) {
        unsigned s = e.op.set & (stripes - 1);
        buckets[s].push_back(&e);
    }

    mem::WriteBackCache ref(geom, policy);
    for (unsigned s = 0; s < stripes; ++s) {
        auto &bucket = buckets[s];
        std::stable_sort(
            bucket.begin(), bucket.end(),
            [](const svc::HistoryEvent *a,
               const svc::HistoryEvent *b) {
                if (a->op.version != b->op.version)
                    return a->op.version < b->op.version;
                return a->op.mutated && !b->op.mutated;
            });

        // Mutation versions must run 1, 2, ..., K: a duplicate
        // means two writers shared a critical section, a gap means
        // a mutation escaped its stripe's seqlock.
        std::uint64_t expected_next = 1;
        bool version_ok = true;
        for (const svc::HistoryEvent *e : bucket) {
            if (!e->op.mutated)
                continue;
            if (version_ok && e->op.version != expected_next) {
                std::ostringstream os;
                os << "stripe " << s << ": mutation version "
                   << e->op.version << " where " << expected_next
                   << " was expected ("
                   << (e->op.version < expected_next ? "duplicate"
                                                     : "gap")
                   << ")";
                log.add(os.str());
                version_ok = false;
            }
            expected_next = e->op.version + 1;
        }

        for (const svc::HistoryEvent *e : bucket) {
            std::string msg = replayEvent(ref, *e);
            if (!msg.empty())
                log.add(msg);
        }
    }

    if (!final_state)
        return;
    // The replayed reference must end bit-identical to the engine.
    for (std::uint32_t set = 0; set < geom.sets(); ++set) {
        for (unsigned w = 0; w < geom.assoc(); ++w) {
            mem::Line a = ref.line(set, static_cast<int>(w));
            mem::Line b =
                final_state->line(set, static_cast<int>(w));
            if (a.valid != b.valid ||
                (a.valid && (a.block != b.block ||
                             a.dirty != b.dirty))) {
                std::ostringstream os;
                os << "final state diverges at set " << set
                   << " way " << w << ": replay ("
                   << (a.valid ? "valid" : "invalid") << " 0x"
                   << std::hex << a.block << std::dec
                   << (a.dirty ? " dirty" : "") << ") vs engine ("
                   << (b.valid ? "valid" : "invalid") << " 0x"
                   << std::hex << b.block << std::dec
                   << (b.dirty ? " dirty" : "") << ")";
                log.add(os.str());
            }
        }
        if (ref.mruOrder(set) != final_state->mruOrder(set)) {
            std::ostringstream os;
            os << "final MRU order diverges at set " << set;
            log.add(os.str());
        }
    }
}

void
checkStatsMerge(const svc::TenantStats &merged,
                const svc::TenantStats &reference, ViolationLog &log)
{
    if (identicalStats(merged, reference))
        return;
    std::ostringstream os;
    os << "stats merge diverges from the serial run: "
       << "ops " << merged.ops << " vs " << reference.ops
       << ", hits " << merged.hits() << " vs " << reference.hits()
       << ", evictions " << merged.evictions << " vs "
       << reference.evictions << ", hit-probe sum "
       << merged.hit_probes.sum() << " vs "
       << reference.hit_probes.sum() << ", miss-probe sum "
       << merged.miss_probes.sum() << " vs "
       << reference.miss_probes.sum();
    log.add(os.str());
}

void
checkAdmissionConservation(const svc::AdmissionStats &a,
                           const std::string &who, ViolationLog &log)
{
    if (a.conservationHolds())
        return;
    std::ostringstream os;
    os << "admission conservation broken for " << who << ": admitted "
       << a.admitted << " != completed " << a.completed << " + shed "
       << a.shed() << " (quota " << a.shed_quota << ", writes "
       << a.shed_writes << ", inflight " << a.shed_inflight
       << ") + failed " << a.failed() << " (timeout "
       << a.failed_timeout << ", cancelled " << a.failed_cancelled
       << ")";
    log.add(os.str());
}

SvcCaseResult
runSvcCase(const SvcFuzzCase &c)
{
    SvcCaseResult out;
    out.digest = kFnvInit;
    fnvMix(out.digest, c.case_seed);

    try {
        // --- Phase A: contended run + serializability replay ----
        Expected<std::unique_ptr<svc::CacheService>> svcE =
            svc::CacheService::create(c.geom, c.cfg, nullptr);
        if (!svcE.ok())
            throwError(svcE.error());
        std::unique_ptr<svc::CacheService> service = svcE.take();

        std::vector<svc::Session *> sessions;
        for (unsigned t = 0; t < c.threads; ++t) {
            Expected<svc::Session *> s = service->openSession();
            if (!s.ok())
                throwError(s.error());
            sessions.push_back(s.take());
        }

        std::vector<std::string> thread_errors(c.threads);
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < c.threads; ++t) {
            workers.emplace_back([&, t]() {
                try {
                    for (const SvcOpSpec &op : svcOpStream(c, t))
                        sessions[t]->apply(op.kind, op.block,
                                           op.is_write);
                } catch (const std::exception &ex) {
                    thread_errors[t] = ex.what();
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        for (unsigned t = 0; t < c.threads; ++t)
            if (!thread_errors[t].empty())
                out.log.add("worker " + std::to_string(t) +
                            " threw: " + thread_errors[t]);
        out.ops += c.threads * c.ops_per_thread;

        bool overflowed = false;
        std::vector<svc::HistoryEvent> events =
            service->collectHistory(&overflowed);
        if (overflowed)
            out.log.add("history overflowed despite exact "
                        "per-session capacity");
        checkSvcHistory(c.geom, c.cfg.engine.policy,
                        service->engine().stripes(), events,
                        &service->engine().cache(), out.log);

        // --- Phase B: partitioned replay vs serial reference ----
        // One combined stream; the tenant salt is disabled so every
        // session addresses the same blocks.
        std::vector<SvcOpSpec> all;
        for (unsigned t = 0; t < c.threads; ++t) {
            std::vector<SvcOpSpec> s = svcOpStream(c, t);
            all.insert(all.end(), s.begin(), s.end());
        }

        svc::SvcConfig dcfg = c.cfg;
        dcfg.record_history = false;
        dcfg.tenant_salt_bits = 0;

        Expected<std::unique_ptr<svc::CacheService>> serialE =
            svc::CacheService::create(c.geom, dcfg, nullptr);
        if (!serialE.ok())
            throwError(serialE.error());
        std::unique_ptr<svc::CacheService> serial = serialE.take();
        Expected<svc::Session *> ses = serial->openSession();
        if (!ses.ok())
            throwError(ses.error());
        svc::Session *serial_session = ses.take();
        for (const SvcOpSpec &op : all)
            serial_session->apply(op.kind, op.block, op.is_write);

        Expected<std::unique_ptr<svc::CacheService>> partE =
            svc::CacheService::create(c.geom, dcfg, nullptr);
        if (!partE.ok())
            throwError(partE.error());
        std::unique_ptr<svc::CacheService> part = partE.take();
        std::vector<svc::Session *> psessions;
        for (unsigned t = 0; t < c.threads; ++t) {
            Expected<svc::Session *> s = part->openSession();
            if (!s.ok())
                throwError(s.error());
            psessions.push_back(s.take());
        }
        std::vector<std::string> perrors(c.threads);
        std::vector<std::thread> pworkers;
        for (unsigned t = 0; t < c.threads; ++t) {
            pworkers.emplace_back([&, t]() {
                try {
                    // Disjoint-by-set partition: thread t owns the
                    // sets congruent to t mod threads, in stream
                    // order — per-set op order matches the serial
                    // run exactly.
                    for (const SvcOpSpec &op : all) {
                        std::uint32_t set = c.geom.setOf(op.block);
                        if (set % c.threads == t)
                            psessions[t]->apply(op.kind, op.block,
                                                op.is_write);
                    }
                } catch (const std::exception &ex) {
                    perrors[t] = ex.what();
                }
            });
        }
        for (std::thread &w : pworkers)
            w.join();
        for (unsigned t = 0; t < c.threads; ++t)
            if (!perrors[t].empty())
                out.log.add("partition worker " + std::to_string(t) +
                            " threw: " + perrors[t]);
        out.ops += 2 * all.size();

        svc::TenantStats serial_total = serial->totalStats();
        checkStatsMerge(part->totalStats(), serial_total, out.log);

        // Digest only the serial outcomes: the contended phase's
        // hit/miss pattern is schedule-dependent by design.
        fnvMix(out.digest, serial_total.ops);
        fnvMix(out.digest, serial_total.hits());
        fnvMix(out.digest, serial_total.evictions);
        fnvMix(out.digest, serial_total.dirty_evictions);
        fnvMix(out.digest,
               static_cast<std::uint64_t>(serial_total.hit_probes.sum()));
        fnvMix(out.digest,
               static_cast<std::uint64_t>(serial_total.miss_probes.sum()));
    } catch (const std::exception &ex) {
        out.log.add(std::string("case threw: ") + ex.what());
    }
    return out;
}

std::string
svcReproCommand(std::uint64_t seed, std::uint64_t index,
                unsigned threads)
{
    return "fuzz_diff --threads=" + std::to_string(threads) +
           " --seed=" + std::to_string(seed) +
           " --config=" + std::to_string(index);
}

SvcFuzzSummary
runSvcFuzz(const SvcFuzzOptions &opt)
{
    SvcFuzzSummary out;
    std::uint64_t h = kFnvInit;
    const std::uint64_t begin =
        opt.have_only_case ? opt.only_case : 0;
    const std::uint64_t end =
        opt.have_only_case ? opt.only_case + 1 : opt.iterations;

    for (std::uint64_t i = begin; i < end; ++i) {
        const SvcFuzzCase c =
            sampleSvcCase(opt.seed, i, opt.threads);
        const SvcCaseResult r = runSvcCase(c);
        ++out.cases_run;
        out.ops += r.ops;
        fnvMix(h, r.digest);

        if (opt.log && !opt.have_only_case && (i + 1) % 500 == 0)
            *opt.log << "svc fuzz: " << (i + 1) << "/"
                     << opt.iterations << " cases, " << out.ops
                     << " ops applied\n";

        if (r.log.ok())
            continue;

        SvcFuzzFailure f;
        f.index = i;
        f.case_seed = c.case_seed;
        f.description = c.describe();
        f.messages = r.log.messages();
        if (opt.log) {
            std::ostream &os = *opt.log;
            os << "FAIL svc case " << i << ": " << f.description
               << "\n";
            for (const std::string &m : f.messages)
                os << "  violation: " << m << "\n";
            if (r.log.count() >
                static_cast<std::uint64_t>(f.messages.size()))
                os << "  ... " << r.log.count()
                   << " violations total\n";
            os << "  repro: "
               << svcReproCommand(opt.seed, i, c.threads) << "\n";
        }
        out.failures.push_back(std::move(f));
        if (out.failures.size() >= opt.max_failures)
            break;
    }
    out.digest = h;
    return out;
}

} // namespace check
} // namespace assoc
