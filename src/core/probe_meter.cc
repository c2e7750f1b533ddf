#include "core/probe_meter.h"

#include "core/tagbits.h"
#include "util/logging.h"

namespace assoc {
namespace core {

double
ProbeStats::hitsMean() const
{
    MeanAccum m = read_in_hits;
    mergeStats(m, write_backs);
    return m.mean();
}

double
ProbeStats::readInMean() const
{
    MeanAccum m = read_in_hits;
    mergeStats(m, read_in_misses);
    return m.mean();
}

double
ProbeStats::totalMean() const
{
    MeanAccum m = read_in_hits;
    mergeStats(m, read_in_misses);
    mergeStats(m, write_backs);
    return m.mean();
}

ProbeMeter::ProbeMeter(std::unique_ptr<LookupStrategy> strategy,
                       const MeterConfig &cfg)
    : strategy_(std::move(strategy)), cfg_(cfg)
{
    panicIf(!strategy_, "ProbeMeter: null strategy");
}

void
ProbeMeter::onFlush()
{
    strategy_->onFlush();
}

void
ProbeMeter::observe(const mem::L2AccessView &view)
{
    const mem::WriteBackCache &cache = *view.cache;
    const unsigned a = cache.geom().assoc();

    if (view.type == mem::L2ReqType::WriteBack && cfg_.wb_optimization) {
        // The level-one cache knows the way: zero probes; counted
        // as a hit reference in the averages (Table 4 caption).
        stats_.write_backs.record(0.0);
        return;
    }

    // The hierarchy hands every observer one decoded snapshot of
    // the set (full tags, validity word, MRU order); this meter only
    // slices tags down to its own stored width t. When t covers the
    // full tag the slice is the identity and the snapshot plane is
    // fed to the strategy as-is.
    const std::uint32_t *stored = view.full_tags;
    if (cfg_.tag_bits < cache.geom().fullTagBits()) {
        tags_.resize(a);
        for (unsigned w = 0; w < a; ++w)
            tags_[w] = sliceTag(view.full_tags[w], cfg_.tag_bits);
        stored = tags_.data();
    }

    LookupInput in;
    in.assoc = a;
    in.stored_tags = stored;
    in.valid = view.valid;
    in.mru_order = view.mru_order;
    in.incoming_tag = sliceTag(view.full_tag, cfg_.tag_bits);
    in.block_addr = view.block;
    in.set = view.set;

    LookupResult res = strategy_->lookup(in);

    stats_.events += res.events;
    ++stats_.metered;
    if (res.memo_hit)
        ++stats_.memo_hits;

    // Auditors run before the ground-truth panic below so a broken
    // strategy is reported through the checker's channel too.
    if (auditor_)
        auditor_->audit(*this, view, in, res);

    // Cross-check against the simulator's full-tag ground truth.
    bool true_hit = view.hit_way >= 0;
    if (res.hit && !true_hit)
        ++stats_.alias_hits;
    else if (res.hit && res.way != view.hit_way)
        ++stats_.alias_wrong_way;
    panicIf(true_hit && !res.hit,
            "scheme missed a block the simulator holds");

    double probes = static_cast<double>(res.probes);
    if (view.type == mem::L2ReqType::WriteBack) {
        stats_.write_backs.record(probes);
    } else if (true_hit) {
        stats_.read_in_hits.record(probes);
    } else {
        stats_.read_in_misses.record(probes);
    }
}

MruDistanceMeter::MruDistanceMeter(unsigned assoc)
    : hist_(assoc + 1)
{
}

void
MruDistanceMeter::observe(const mem::L2AccessView &view)
{
    if (view.type != mem::L2ReqType::ReadIn || view.hit_way < 0)
        return;
    const std::uint8_t *order = view.mru_order;
    const unsigned a = view.cache->geom().assoc();
    for (unsigned i = 0; i < a; ++i) {
        if (order[i] == static_cast<std::uint8_t>(view.hit_way)) {
            hist_.record(i + 1); // distance is 1-based
            return;
        }
    }
    panic("hit way missing from the recency order");
}

double
MruDistanceMeter::f(unsigned i) const
{
    return hist_.fraction(i);
}

} // namespace core
} // namespace assoc
