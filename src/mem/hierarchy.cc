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

void
ObserverFanout::add(L2Observer *obs)
{
    panicIf(obs == nullptr, "null observer");
    observers_.push_back(obs);
}

void
ObserverFanout::deliver(const WriteBackCache &cache, L2ReqType type,
                        BlockAddr block, int hit_way, int hint_way)
{
    const CacheGeometry &geom = cache.geom();
    L2AccessView view;
    view.type = type;
    view.set = geom.setOf(block);
    view.block = block;
    view.full_tag = geom.fullTagOf(block);
    view.cache = &cache;
    view.hit_way = hit_way;
    view.hint_way = hint_way;
    // The set as every observer reads it: the cache's block plane,
    // validity word and recency order, in place.
    view.blocks = cache.setBlocks(view.set);
    view.valid = cache.validMask(view.set);
    view.mru_order = cache.setOrder(view.set);
    for (L2Observer *obs : observers_)
        obs->observe(view);
}

void
ObserverFanout::onFlush()
{
    for (L2Observer *obs : observers_)
        obs->onFlush();
}

LevelOne::LevelOne(const CacheGeometry &geom, L1WritePolicy policy)
    : cache_(geom), policy_(policy)
{
}

void
LevelOne::access(const trace::MemRef &ref, std::uint32_t pos,
                std::vector<L2Request> &out)
{
    if (ref.isFlush()) {
        cache_.flush();
        out.push_back({pos, 0, 0, L2Request::Kind::Flush});
        return;
    }
    if (lookup(ref) >= 0)
        return;
    // Nothing else touches a write-back level one between its miss
    // and its fill, so the fill need not wait for the read-in.
    const Fill f = fill(ref);
    out.push_back({pos, cache_.geom().blockAddrOf(ref.addr), f.frame,
                   L2Request::Kind::ReadIn});
    if (f.write_back)
        out.push_back(
            {pos, f.victim, f.frame, L2Request::Kind::WriteBack});
}

TwoLevelHierarchy::TwoLevelHierarchy(const HierarchyConfig &cfg)
    : cfg_(cfg), l1_(cfg.l1, cfg.write_policy),
      l2_(cfg.l2, cfg.l2_replacement),
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
    fanout_.add(obs);
}

void
TwoLevelHierarchy::setMemorySide(MemorySide *mem)
{
    panicIf(mem == nullptr, "null memory side");
    mem_side_ = mem;
}

int
TwoLevelHierarchy::l2ReadIn(BlockAddr l2_block)
{
    ++stats_.read_ins;
    std::uint32_t set = cfg_.l2.setOf(l2_block);
    int way = l2_.findWay(l2_block);
    fanout_.notify(l2_, L2ReqType::ReadIn, l2_block, way, -1);

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

TwoLevelHierarchy::L1Drop
TwoLevelHierarchy::dropL1Lines(BlockAddr l2_block)
{
    L1Drop drop;
    std::uint32_t ratio = cfg_.l2.blockBytes() / cfg_.l1.blockBytes();
    trace::Addr base = cfg_.l2.byteAddrOf(l2_block);
    for (std::uint32_t i = 0; i < ratio; ++i) {
        BlockAddr l1_block =
            cfg_.l1.blockAddrOf(base + i * cfg_.l1.blockBytes());
        std::uint32_t set = cfg_.l1.setOf(l1_block);
        int way = l1_.cache().findWay(l1_block);
        if (way < 0)
            continue;
        ++drop.lines;
        if (l1_.cache().invalidate(l1_block))
            ++drop.dirty;
        way_hint_[static_cast<std::size_t>(set) * cfg_.l1.assoc() +
                  way] = -1;
    }
    return drop;
}

void
TwoLevelHierarchy::enforceInclusion(BlockAddr evicted_l2_block)
{
    // Every level-one line inside the evicted level-two block must
    // leave the level one as well [Baer88]. Dirty words travel to
    // memory with the level-two victim (not modeled beyond
    // counting).
    const L1Drop drop = dropL1Lines(evicted_l2_block);
    stats_.inclusion_invalidations += drop.lines;
    stats_.inclusion_dirty_invalidations += drop.dirty;
}

void
TwoLevelHierarchy::l2WriteBack(BlockAddr l2_block, int hint_way)
{
    ++stats_.write_backs;
    std::uint32_t set = cfg_.l2.setOf(l2_block);
    int way = l2_.findWay(l2_block);
    fanout_.notify(l2_, L2ReqType::WriteBack, l2_block, way, hint_way);

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
        flushMarker();
        return;
    }

    ++stats_.proc_refs;
    const std::int64_t hit = l1_.lookup(ref);
    const bool store_through =
        ref.isWrite() &&
        cfg_.write_policy == L1WritePolicy::WriteThrough;
    if (hit >= 0) {
        ++stats_.l1_hits;
        // Write-through: the store goes straight to the level two,
        // guided by the way hint.
        if (store_through)
            l2WriteBack(cfg_.l2.blockAddrOf(ref.addr),
                        way_hint_[static_cast<std::size_t>(hit)]);
        return;
    }

    ++stats_.l1_misses;

    // Read-in first: the missing block is obtained before the
    // write-back of the displaced dirty block is issued (Table 3).
    BlockAddr l2_block = cfg_.l2.blockAddrOf(ref.addr);
    int l2_way = l2ReadIn(l2_block);

    // The fill happens after the read-in (whose inclusion
    // invalidations may have emptied level-one frames), and the
    // displaced victim's way hint is read before its frame takes
    // the new block's.
    const LevelOne::Fill fill = l1_.fill(ref);
    int victim_hint = rehint(fill.frame, l2_way);

    // Then the write-back of the displaced dirty block.
    if (fill.write_back)
        l2WriteBack(l2BlockOf(fill.victim), victim_hint);

    // A write-through store that missed the level one still goes to
    // the level two after the read-in.
    if (store_through)
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
            l1_.cache().prefetchSet(
                cfg_.l1.blockAddrOf(refs[i + 1].addr));
            l2_.prefetchSet(cfg_.l2.blockAddrOf(refs[i + 1].addr));
        }
        access(refs[i]);
        if (remote)
            remote->step(*this);
    }
}

namespace {

[[noreturn]] void
streamMismatch(std::uint64_t pos, const char *what)
{
    throwError(Error::internal(
        "level-one request stream does not match the trace at "
        "reference " + std::to_string(pos) + ": " + what));
}

} // namespace

void
TwoLevelHierarchy::replayRequests(const trace::MemRef *refs,
                                  std::size_t n, std::uint64_t first,
                                  L2RequestCursor &reqs)
{
    const std::uint64_t end = first + n;
    std::uint64_t flushes = 0;
    for (std::size_t i = 0; i < n; ++i)
        flushes += refs[i].isFlush();

    // Read-ins and flushes take one reference each, in trace order;
    // a write-back follows its reference's read-in.
    std::uint64_t free_from = first;
    std::uint64_t read_ins = 0, flushed = 0;
    int victim_hint = -1;
    bool after_read_in = false;
    for (const L2Request *req = reqs.peek(); req && req->ref < end;
         req = reqs.peek()) {
        reqs.advance();
        const std::uint64_t pos = req->ref;
        // Warm the next request's level-two set while this one runs.
        const L2Request *next = reqs.peek();
        if (next && next->kind != L2Request::Kind::Flush)
            l2_.prefetchSet(l2BlockOf(next->block));
        if (pos < first)
            streamMismatch(pos, "request out of trace order");
        const trace::MemRef &ref = refs[pos - first];
        switch (req->kind) {
          case L2Request::Kind::ReadIn:
            if (pos < free_from || ref.isFlush() ||
                cfg_.l1.blockAddrOf(ref.addr) != req->block)
                streamMismatch(pos, "read-in of another block");
            ++read_ins;
            victim_hint =
                rehint(req->frame, l2ReadIn(l2BlockOf(req->block)));
            after_read_in = true;
            break;
          case L2Request::Kind::WriteBack:
            if (!after_read_in || pos + 1 != free_from)
                streamMismatch(pos, "write-back without its read-in");
            l2WriteBack(l2BlockOf(req->block), victim_hint);
            after_read_in = false;
            continue;
          case L2Request::Kind::Flush:
            if (pos < free_from || !ref.isFlush())
                streamMismatch(pos, "flush marker out of place");
            ++flushed;
            flushMarker();
            after_read_in = false;
            break;
        }
        free_from = pos + 1;
    }
    if (flushed != flushes)
        streamMismatch(first, "a flush marker has no request");
    stats_.proc_refs += n - flushes;
    stats_.l1_misses += read_ins;
    stats_.l1_hits += n - flushes - read_ins;
}

void
TwoLevelHierarchy::run(trace::TraceSource &src, unsigned batch)
{
    src.reset();
    std::vector<trace::MemRef> buf(std::max(batch, 1u));
    while (std::size_t n = src.nextBatch(buf.data(), buf.size()))
        replay(buf.data(), n);
    // A reader that stopped on a failure must not pass for a clean
    // end of trace (sim::runTrace checks the same).
    if (src.failed())
        throwError(Error(src.error()).withContext("streaming the trace"));
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
    dropL1Lines(l2_block);
    return true;
}

void
TwoLevelHierarchy::flushAll()
{
    l1_.cache().flush();
    l2_.flush();
    std::fill(way_hint_.begin(), way_hint_.end(),
              static_cast<std::int16_t>(-1));
    fanout_.onFlush();
    if (mem_side_)
        mem_side_->onFlush();
}

} // namespace mem
} // namespace assoc
