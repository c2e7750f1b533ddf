#include "core/probe_meter.h"

#include "core/tagbits.h"
#include "util/bitops.h"
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
    price(view, [&] { return sliceInput(view, cfg_.tag_bits, tags_); });
}

void
ProbeMeter::record(const mem::L2AccessView &view, const LookupInput &in)
{
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

LookupInput
sliceInput(const mem::L2AccessView &view, unsigned tag_bits,
           std::vector<std::uint32_t> &scratch)
{
    // The view carries the set's block plane as the cache stores
    // it; each way's stored t-bit tag is cut from its block in one
    // pass, sliceTag(fullTagOf(block), t), valid or not.
    const mem::CacheGeometry &geom = view.cache->geom();
    const unsigned a = geom.assoc();
    const std::uint32_t incoming = sliceTag(view.full_tag, tag_bits);
    // sliceTag checked the width; every way takes the same mask.
    const std::uint32_t mask =
        static_cast<std::uint32_t>(maskBits(tag_bits));
    scratch.resize(a);
    for (unsigned w = 0; w < a; ++w)
        scratch[w] = geom.fullTagOf(view.blocks[w]) & mask;
    return LookupInput(a, scratch.data(), view.valid, view.mru_order,
                       incoming, view.block, view.set);
}

void
MeterBank::add(ProbeMeter *meter)
{
    panicIf(meter == nullptr, "MeterBank: null meter");
    const unsigned t = meter->config().tag_bits;
    unsigned i = 0;
    while (i < widths_.size() && widths_[i].tag_bits != t)
        ++i;
    if (i == widths_.size())
        widths_.push_back(Width{t, {}, std::nullopt});
    meters_.emplace_back(meter, i);
}

void
MeterBank::observe(const mem::L2AccessView &view)
{
    for (Width &w : widths_)
        w.in.reset();
    for (const auto &[meter, i] : meters_) {
        meter->price(view, [&, i = i]() -> const LookupInput & {
            Width &w = widths_[i];
            if (!w.in)
                w.in.emplace(sliceInput(view, w.tag_bits, w.tags));
            return *w.in;
        });
    }
}

void
MeterBank::onFlush()
{
    for (const auto &entry : meters_)
        entry.first->onFlush();
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
