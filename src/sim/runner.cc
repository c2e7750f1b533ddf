#include "sim/runner.h"

#include <algorithm>
#include <optional>

#include "util/logging.h"

namespace assoc {
namespace sim {

namespace {

/** runTrace(), through the filtered replay when @p requests is set. */
RunOutput
run(trace::TraceSource &src, const RunSpec &spec,
    const mem::L2RequestStream *requests)
{
    if (requests && !levelOneDecoupled(spec))
        throwError(Error::internal(
            "a request stream replayed by a coupled level one"));
    mem::TwoLevelHierarchy hier(spec.hier);

    // The hierarchy's line planes are the run's dominant allocation;
    // charge them before streaming so a spec too big for its budget
    // fails in microseconds, not after a billion accesses.
    MemCharge hier_charge;
    if (spec.budget) {
        Expected<MemCharge> c = MemCharge::charge(
            spec.budget, hier.footprintBytes(),
            "cache hierarchy " +
                cacheName(spec.hier.l1.sizeBytes(),
                          spec.hier.l1.blockBytes()) +
                "/" +
                cacheName(spec.hier.l2.sizeBytes(),
                          spec.hier.l2.blockBytes()));
        if (!c.ok())
            throwError(Error(c.error())
                           .withContext("allocating the hierarchy"));
        hier_charge = c.take();
    }

    // The meters share one observer, so each access's tags are
    // sliced and compared once per tag width, not once per scheme.
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    core::MeterBank bank;
    meters.reserve(spec.schemes.size());
    for (const core::SchemeSpec &scheme : spec.schemes) {
        meters.push_back(scheme.makeMeter(spec.wb_optimization));
        meters.back()->setAuditor(spec.auditor);
        bank.add(meters.back().get());
    }
    if (!meters.empty())
        hier.addObserver(&bank);
    for (mem::L2Observer *obs : spec.extra_observers)
        hier.addObserver(obs);

    std::unique_ptr<core::MruDistanceMeter> dist;
    if (spec.with_distances) {
        dist = std::make_unique<core::MruDistanceMeter>(
            spec.hier.l2.assoc());
        hier.addObserver(dist.get());
    }

    RunOutput out;
    mem::CoherencyTraffic remote(spec.coherency_rate);
    mem::CoherencyTraffic *step =
        spec.coherency_rate > 0.0 ? &remote : nullptr;
    const CancelToken *cancel = spec.cancel;
    const std::uint64_t every =
        cancel ? std::max<std::uint64_t>(spec.checkpoint_every, 1) : 0;
    const std::uint64_t period = spec.occupancy_sample_period;

    src.reset();
    if (cancel) {
        // Checkpoint zero: a token tripped before the stream starts
        // stops the job without touching the trace.
        Expected<void> go = cancel->checkpoint();
        if (!go.ok())
            throwError(Error(go.error()).withContext("before streaming"));
    }

    std::optional<mem::L2RequestCursor> reqs;
    if (requests)
        reqs.emplace(*requests);

    constexpr std::uint64_t kBatch = RunSpec::batch_size;
    trace::MemRef buf[kBatch];
    std::uint64_t n = 0;
    double occ_sum = 0.0;
    std::uint64_t occ_samples = 0;
    for (;;) {
        // Never pull past the next checkpoint or occupancy sample, so
        // both land after exactly the access a per-reference loop
        // would have taken them at.
        std::uint64_t want = kBatch;
        if (every != 0)
            want = std::min(want, every - n % every);
        if (period != 0)
            want = std::min(want, period - n % period);
        std::size_t got = src.nextBatch(buf, want);
        if (reqs)
            hier.replayRequests(buf, got, n, *reqs);
        else
            hier.replay(buf, got, step);
        n += got;
        // A short pull is the end of the trace (or a failed source),
        // and it stops short of the next checkpoint and sample.
        if (got < want)
            break;
        if (every != 0 && n % every == 0) {
            Expected<void> go = cancel->checkpoint();
            if (!go.ok())
                throwError(Error(go.error()).withContext(
                    "after " + std::to_string(n) + " accesses"));
        }
        if (period != 0 && n % period == 0) {
            occ_sum += mem::l2ValidFraction(hier);
            ++occ_samples;
        }
    }
    if (occ_samples != 0)
        out.mean_occupancy = occ_sum / occ_samples;

    // Distinguish "stream ended" from "stream died": a reader that
    // stopped on a malformed record must fail the run, not quietly
    // produce statistics over a prefix.
    if (src.failed()) {
        Error e(src.error());
        throwError(std::move(e.withContext("streaming the trace")));
    }
    if (reqs && reqs->peek())
        throwError(Error::internal(
            "level-one request stream outlasts the trace's " +
            std::to_string(n) + " references"));

    out.skipped_records = src.skippedRecords();
    out.stats = hier.stats();
    for (const auto &meter : meters) {
        out.names.push_back(meter->name());
        out.probes.push_back(meter->stats());
    }
    if (dist) {
        out.f.assign(spec.hier.l2.assoc() + 1, 0.0);
        for (unsigned i = 1; i <= spec.hier.l2.assoc(); ++i)
            out.f[i] = dist->f(i);
    }
    return out;
}

} // namespace

RunOutput
runTrace(trace::TraceSource &src, const RunSpec &spec)
{
    return run(src, spec, nullptr);
}

RunOutput
runTrace(trace::TraceSource &src, const RunSpec &spec,
         const mem::L2RequestStream &requests)
{
    return run(src, spec, &requests);
}

bool
levelOneDecoupled(const RunSpec &spec)
{
    return spec.hier.write_policy == mem::L1WritePolicy::WriteBack &&
           !spec.hier.enforce_inclusion && spec.coherency_rate == 0.0;
}

std::string
cacheName(std::uint32_t bytes, std::uint32_t block)
{
    // One shared formatter with CacheGeometry::name(): sub-1 KiB
    // sizes are spelled in bytes ("512B-16"), larger ones in K/M.
    return mem::sizeLabel(bytes) + "-" + std::to_string(block);
}

const std::vector<Table4Config> &
table4Configs()
{
    static const std::vector<Table4Config> configs = {
        {16384, 16, 262144, 32}, {16384, 16, 262144, 16},
        {16384, 32, 262144, 32}, {4096, 16, 262144, 64},
        {4096, 16, 262144, 32},  {4096, 16, 262144, 16},
        {4096, 16, 65536, 32},   {4096, 16, 65536, 16},
    };
    return configs;
}

} // namespace sim
} // namespace assoc
