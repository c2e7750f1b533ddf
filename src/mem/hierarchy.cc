#include "mem/hierarchy.h"

#include <algorithm>

#include "mem/coherency.h"
#include "util/logging.h"

namespace assoc {
namespace mem {

double
HierarchyStats::l1MissRatio() const
{
    return proc_refs == 0 ? 0.0
                          : static_cast<double>(l1_misses) / proc_refs;
}

double
HierarchyStats::globalMissRatio() const
{
    return proc_refs == 0 ? 0.0
                          : static_cast<double>(read_in_misses) /
                                proc_refs;
}

double
HierarchyStats::localMissRatio() const
{
    std::uint64_t reqs = read_ins + write_backs;
    return reqs == 0 ? 0.0
                     : static_cast<double>(read_in_misses +
                                           write_back_misses) /
                           reqs;
}

double
HierarchyStats::writeBackFraction() const
{
    std::uint64_t reqs = read_ins + write_backs;
    return reqs == 0 ? 0.0 : static_cast<double>(write_backs) / reqs;
}

double
HierarchyStats::hintAccuracy() const
{
    std::uint64_t n = hint_correct + hint_wrong;
    return n == 0 ? 0.0 : static_cast<double>(hint_correct) / n;
}

TwoLevelHierarchy::TwoLevelHierarchy(const HierarchyConfig &cfg)
    : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2, cfg.l2_replacement),
      scratch_tags_(cfg.l2.assoc()), scratch_valid_(cfg.l2.assoc()),
      scratch_order_(cfg.l2.assoc()),
      way_hint_(static_cast<std::size_t>(cfg.l1.sets()) *
                    cfg.l1.assoc(),
                -1)
{
    fatalIf(cfg_.l1.blockBytes() > cfg_.l2.blockBytes(),
            "level-one block size exceeds level-two block size");
}

void
TwoLevelHierarchy::addObserver(L2Observer *obs)
{
    panicIf(obs == nullptr, "null observer");
    observers_.push_back(obs);
}

void
TwoLevelHierarchy::setMemorySide(MemorySide *mem)
{
    panicIf(mem == nullptr, "null memory side");
    mem_side_ = mem;
}

void
TwoLevelHierarchy::notify(L2AccessView &view)
{
    if (observers_.empty())
        return;
    // Decode the accessed set once for every observer: the packed
    // cache state becomes the flat per-way planes core::LookupInput
    // expects, and meters stop re-reading lines per strategy.
    l2_.snapshotSet(view.set, scratch_tags_.data(),
                    scratch_valid_.data(), scratch_order_.data());
    view.full_tags = scratch_tags_.data();
    view.valid = scratch_valid_.data();
    view.mru_order = scratch_order_.data();
    for (L2Observer *obs : observers_)
        obs->observe(view);
}

int
TwoLevelHierarchy::l2ReadIn(BlockAddr l2_block)
{
    ++stats_.read_ins;
    std::uint32_t set = cfg_.l2.setOf(l2_block);
    int way = l2_.findWay(l2_block);

    if (!observers_.empty()) {
        L2AccessView view;
        view.type = L2ReqType::ReadIn;
        view.set = set;
        view.block = l2_block;
        view.full_tag = cfg_.l2.fullTagOf(l2_block);
        view.cache = &l2_;
        view.hit_way = way;
        view.hint_way = -1;
        notify(view);
    }

    if (way >= 0) {
        ++stats_.read_in_hits;
        l2_.touch(set, way);
        return way;
    }
    ++stats_.read_in_misses;
    // Fetch from the memory side; the line arrives clean. The
    // read-in precedes the victim write-back, mirroring the L1-L2
    // protocol.
    if (mem_side_)
        mem_side_->fetch(l2_block);
    FillResult fr = l2_.fill(l2_block, false);
    if (cfg_.enforce_inclusion && fr.evicted)
        enforceInclusion(fr.victim_block);
    if (fr.evicted && fr.victim_dirty && mem_side_)
        mem_side_->writeBack(fr.victim_block);
    return fr.way;
}

void
TwoLevelHierarchy::enforceInclusion(BlockAddr evicted_l2_block)
{
    // Every level-one line inside the evicted level-two block must
    // leave the level one as well [Baer88].
    std::uint32_t ratio = cfg_.l2.blockBytes() / cfg_.l1.blockBytes();
    trace::Addr base = cfg_.l2.byteAddrOf(evicted_l2_block);
    for (std::uint32_t i = 0; i < ratio; ++i) {
        BlockAddr l1_block =
            cfg_.l1.blockAddrOf(base + i * cfg_.l1.blockBytes());
        std::uint32_t set = cfg_.l1.setOf(l1_block);
        int way = l1_.findWay(l1_block);
        if (way < 0)
            continue;
        ++stats_.inclusion_invalidations;
        if (l1_.line(set, way).dirty) {
            // The dirty words travel to memory with the level-two
            // victim (not modeled beyond counting).
            ++stats_.inclusion_dirty_invalidations;
        }
        l1_.invalidate(l1_block);
        way_hint_[static_cast<std::size_t>(set) * cfg_.l1.assoc() +
                  way] = -1;
    }
}

void
TwoLevelHierarchy::l2WriteBack(BlockAddr l2_block, int hint_way)
{
    ++stats_.write_backs;
    std::uint32_t set = cfg_.l2.setOf(l2_block);
    int way = l2_.findWay(l2_block);

    if (!observers_.empty()) {
        L2AccessView view;
        view.type = L2ReqType::WriteBack;
        view.set = set;
        view.block = l2_block;
        view.full_tag = cfg_.l2.fullTagOf(l2_block);
        view.cache = &l2_;
        view.hit_way = way;
        view.hint_way = hint_way;
        notify(view);
    }

    if (hint_way >= 0) {
        if (way == hint_way)
            ++stats_.hint_correct;
        else
            ++stats_.hint_wrong;
    }

    if (way >= 0) {
        ++stats_.write_back_hits;
        l2_.setDirty(set, way);
        l2_.touch(set, way);
        return;
    }
    // The block was replaced in the level two while still live in
    // the level one: an inclusion violation.
    ++stats_.write_back_misses;
    if (cfg_.allocate_on_wb_miss) {
        if (mem_side_)
            mem_side_->fetch(l2_block); // write-allocate
        FillResult fr = l2_.fill(l2_block, true);
        if (cfg_.enforce_inclusion && fr.evicted)
            enforceInclusion(fr.victim_block);
        if (fr.evicted && fr.victim_dirty && mem_side_)
            mem_side_->writeBack(fr.victim_block);
    } else if (mem_side_) {
        // Without allocation the dirty data goes straight through.
        mem_side_->writeBack(l2_block);
    }
}

void
TwoLevelHierarchy::access(const trace::MemRef &ref)
{
    if (ref.isFlush()) {
        flushAll();
        ++stats_.flushes;
        return;
    }

    ++stats_.proc_refs;
    BlockAddr l1_block = cfg_.l1.blockAddrOf(ref.addr);
    std::uint32_t l1_set = cfg_.l1.setOf(l1_block);
    int l1_way = l1_.findWay(l1_block);

    if (l1_way >= 0) {
        ++stats_.l1_hits;
        l1_.touch(l1_set, l1_way);
        if (ref.isWrite()) {
            if (cfg_.write_policy == L1WritePolicy::WriteBack) {
                l1_.setDirty(l1_set, l1_way);
            } else {
                // Write-through: the store goes straight to the
                // level two, guided by the way hint.
                int hint =
                    way_hint_[static_cast<std::size_t>(l1_set) *
                                  cfg_.l1.assoc() +
                              l1_way];
                l2WriteBack(cfg_.l2.blockAddrOf(ref.addr), hint);
            }
        }
        return;
    }

    ++stats_.l1_misses;

    // Read-in first: the missing block is obtained before the
    // write-back of the displaced dirty block is issued (Table 3).
    BlockAddr l2_block = cfg_.l2.blockAddrOf(ref.addr);
    int l2_way = l2ReadIn(l2_block);

    // The fill happens after the read-in (whose inclusion
    // invalidations may have emptied level-one frames); the
    // FillResult carries the displaced victim's address and dirty
    // state, and its frame's level-two way hint is read before the
    // slot is overwritten with the new block's.
    bool fill_dirty = ref.isWrite() &&
                      cfg_.write_policy == L1WritePolicy::WriteBack;
    FillResult fr = l1_.fill(l1_block, fill_dirty);
    std::size_t hint_idx =
        static_cast<std::size_t>(l1_set) * cfg_.l1.assoc() +
        static_cast<std::size_t>(fr.way);
    int victim_hint = way_hint_[hint_idx];
    way_hint_[hint_idx] = static_cast<std::int16_t>(l2_way);

    // Then the write-back of the displaced dirty block (write-back
    // policy only; write-through lines are never dirty).
    if (fr.evicted && fr.victim_dirty) {
        trace::Addr victim_byte =
            cfg_.l1.byteAddrOf(fr.victim_block);
        l2WriteBack(cfg_.l2.blockAddrOf(victim_byte), victim_hint);
    }

    // A write-through store that missed the level one still goes to
    // the level two after the read-in.
    if (ref.isWrite() &&
        cfg_.write_policy == L1WritePolicy::WriteThrough)
        l2WriteBack(l2_block, l2_way);
}

void
TwoLevelHierarchy::replay(const trace::MemRef *refs, std::size_t n,
                          CoherencyTraffic *remote)
{
    for (std::size_t i = 0; i < n; ++i) {
        // Warm the next reference's set planes while this one
        // executes; flush markers touch no set.
        if (i + 1 < n && !refs[i + 1].isFlush()) {
            l1_.prefetchSet(cfg_.l1.blockAddrOf(refs[i + 1].addr));
            l2_.prefetchSet(cfg_.l2.blockAddrOf(refs[i + 1].addr));
        }
        access(refs[i]);
        if (remote)
            remote->step(*this);
    }
}

void
TwoLevelHierarchy::run(trace::TraceSource &src, unsigned batch)
{
    src.reset();
    std::vector<trace::MemRef> buf(std::max(batch, 1u));
    while (std::size_t n = src.nextBatch(buf.data(), buf.size()))
        replay(buf.data(), n);
}

bool
TwoLevelHierarchy::remoteInvalidate(BlockAddr l2_block)
{
    int way = l2_.findWay(l2_block);
    if (way < 0)
        return false;
    ++stats_.coherency_invalidations;
    l2_.invalidate(l2_block);
    // The invalidation propagates to the level one (as coherency
    // protocols require of an inclusive hierarchy; and without
    // inclusion, stale level-one copies must still die).
    std::uint32_t ratio = cfg_.l2.blockBytes() / cfg_.l1.blockBytes();
    trace::Addr base = cfg_.l2.byteAddrOf(l2_block);
    for (std::uint32_t i = 0; i < ratio; ++i) {
        BlockAddr l1_block =
            cfg_.l1.blockAddrOf(base + i * cfg_.l1.blockBytes());
        std::uint32_t set = cfg_.l1.setOf(l1_block);
        int l1_way = l1_.findWay(l1_block);
        if (l1_way < 0)
            continue;
        l1_.invalidate(l1_block);
        way_hint_[static_cast<std::size_t>(set) * cfg_.l1.assoc() +
                  l1_way] = -1;
    }
    return true;
}

void
TwoLevelHierarchy::flushAll()
{
    l1_.flush();
    l2_.flush();
    std::fill(way_hint_.begin(), way_hint_.end(),
              static_cast<std::int16_t>(-1));
    for (L2Observer *obs : observers_)
        obs->onFlush();
    if (mem_side_)
        mem_side_->onFlush();
}

} // namespace mem
} // namespace assoc
