#include "core/way_memo.h"

#include <bit>

#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace core {

WayMemoLookup::WayMemoLookup(
    std::unique_ptr<LookupStrategy> underlying,
    const WayMemoConfig &cfg)
    : underlying_(std::move(underlying)), cfg_(cfg)
{
    panicIf(!underlying_, "WayMemoLookup: null underlying strategy");
    fatalIf(!isPow2(cfg_.entries),
            "memo entries must be a power of two");
    fatalIf(cfg_.region_bits >= 32,
            "memo region bits must leave a nonempty region id");
    table_.resize(cfg_.entries);
}

std::string
WayMemoLookup::name() const
{
    return "WayMemo(e=" + std::to_string(cfg_.entries) +
           ",r=" + std::to_string(cfg_.region_bits) +
           (cfg_.tagged ? ",tagged)" : ",untagged)") + "+" +
           underlying_->name();
}

void
WayMemoLookup::onFlush()
{
    table_.assign(table_.size(), Entry{});
    underlying_->onFlush();
}

LookupResult
WayMemoLookup::lookup(const LookupInput &in) const
{
    const std::uint32_t region = in.block_addr >> cfg_.region_bits;
    const std::uint32_t idx = region & (cfg_.entries - 1);
    Entry &e = table_[idx];

    // The underlying scheme always decides hit/miss — memoization
    // must never change outcomes, only costs (see file header).
    LookupResult under = underlying_->lookup(in);

    const bool entry_matches =
        e.way >= 0 && (!cfg_.tagged || e.region == region);

    if (entry_matches && under.hit &&
        e.way == static_cast<std::int16_t>(under.way)) {
        // Memo hit: the table already names the right way; every
        // tag probe is skipped.
        LookupResult res;
        res.hit = true;
        res.way = under.way;
        res.probes = 0;
        res.events.memo_reads = 1;
        res.memo_hit = true;
        return res;
    }

    // Memo miss (cold, aliased, or stale entry): the underlying
    // probes all happen, plus the memo read that failed and the
    // update that repairs the table.
    LookupResult res = under;
    res.events.memo_reads += 1;
    res.events.memo_writes += 1;
    if (under.hit) {
        e.region = region;
        e.way = static_cast<std::int16_t>(under.way);
    } else if (entry_matches) {
        // The region's block is provably absent: drop the entry,
        // as hardware invalidation would have.
        e.way = -1;
    }
    return res;
}

LookupResult
WayPredictLookup::lookup(const LookupInput &in) const
{
    LookupResult res;
    // The prediction register read happens alongside set decode:
    // an energy event, never a probe.
    res.events.memo_reads = 1;

    const unsigned pred = in.mru_order[0];

    // First probe: the predicted way alone.
    res.probes = 1;
    res.events.tag_reads = 1;
    res.events.tag_compares = 1;
    if (((in.eq >> pred) & 1) != 0) {
        res.hit = true;
        res.way = static_cast<int>(pred);
        return res;
    }

    if (in.assoc == 1)
        return res; // nothing left to probe

    // Second probe: all remaining a-1 ways in parallel, hit = the
    // lowest matching way index (the parallel comparator's priority
    // encoder) — the lowest bit of the input's eq mask, which the
    // mispredicted way cannot be.
    ++res.probes;
    res.events.tag_reads += in.assoc - 1;
    res.events.tag_compares += in.assoc - 1;
    res.events.memo_writes = 1; // repair the prediction register
    if (in.eq != 0) {
        res.hit = true;
        res.way = static_cast<int>(std::countr_zero(in.eq));
    }
    return res;
}

} // namespace core
} // namespace assoc
