/**
 * @file
 * The paper's evaluation substrate: a direct-mapped write-back
 * level-one cache in front of an a-way set-associative write-back
 * level-two cache (Table 3).
 *
 * The level-one cache turns the processor reference stream into a
 * stream of *read-in* and *write-back* requests; on a miss that
 * displaces a dirty block, the read-in is issued first, then the
 * write-back. The hierarchy also maintains the per-line level-two
 * way *hints* that implement the paper's write-back optimization
 * and monitors how often multi-level inclusion would be violated.
 *
 * The two halves are separate. LevelOne takes a reference and
 * yields its level-two requests; TwoLevelHierarchy applies them.
 * The lockstep replay (access, replay, run) applies each
 * reference's requests before it reads the next one. The filtered
 * replay (replayRequests) applies a request stream a LevelOne
 * yielded earlier, without a level one of its own. That is exact
 * when nothing the level two does reaches back into the level one:
 * a write-back level one, no inclusion enforcement and no
 * coherency traffic.
 *
 * Lookup-cost observers (src/core) attach here and are shown every
 * level-two access before it commits. One ObserverFanout per
 * observed level (this level two, and a ThirdLevelCache's level
 * three) builds each access's view and delivers it: the set's block
 * plane, validity word and recency order, all as the cache keeps
 * them, with nothing decoded or copied.
 */

#ifndef ASSOC_MEM_HIERARCHY_H
#define ASSOC_MEM_HIERARCHY_H

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "trace/trace_source.h"
#include "util/stats.h"

namespace assoc {
namespace mem {

class CoherencyTraffic;

/** Kind of request the level-one cache sends to the level-two. */
enum class L2ReqType : std::uint8_t {
    ReadIn,    ///< fetch a block missing from the level-one cache
    WriteBack, ///< write a dirty displaced block to the level two
};

/**
 * What an observer sees for one level-two access, *before* the
 * access updates any state.
 *
 * The per-way planes are the accessed set as the level's
 * ObserverFanout shows it to every observer: @c blocks points into
 * the cache's own block plane and @c mru_order into its MRU order
 * plane, and both are only valid for the duration of observe().
 * With the set's validity word they carry everything
 * core::LookupInput needs (core::sliceInput cuts each way's t-bit
 * tag from its block), so probe meters feed strategies without
 * calling into the cache; @c cache remains available for anything
 * else (auditors, tests).
 */
struct L2AccessView
{
    L2ReqType type;
    std::uint32_t set;            ///< level-two set index
    BlockAddr block;              ///< incoming block address
    std::uint32_t full_tag;       ///< incoming full tag
    const WriteBackCache *cache;  ///< pre-access level-two state
    int hit_way;                  ///< way that hits, or -1 on a miss
    int hint_way;                 ///< L1's way hint (write-backs), -1 none

    /** Pre-access block address per way of the accessed set
     *  (WriteBackCache::setBlocks; invalid ways keep their last). */
    const BlockAddr *blocks = nullptr;
    /** Validity word of the set: bit w set iff way w is valid. */
    std::uint64_t valid = 0;
    /** Way indices from most- to least-recently used
     *  (WriteBackCache::setOrder). */
    const std::uint8_t *mru_order = nullptr;
};

/** Interface for lookup-cost observers (probe meters). */
class L2Observer
{
  public:
    virtual ~L2Observer() = default;

    /** Called once per level-two access, before state updates. */
    virtual void observe(const L2AccessView &view) = 0;

    /** Called when the hierarchy is flushed (cold-start boundary). */
    virtual void onFlush() {}
};

/**
 * The observers of one cache level and the one place their view is
 * built: each observed access points the view at the set's block
 * plane, validity word and recency order in place, and every
 * observer sees the same L2AccessView. TwoLevelHierarchy owns one
 * for the level two, ThirdLevelCache one for the level three.
 */
class ObserverFanout
{
  public:
    /** Attach an observer (not owned). */
    void add(L2Observer *obs);

    /**
     * Show every observer the access of @p block in @p cache before
     * it commits. Without an observer no view is built.
     */
    void
    notify(const WriteBackCache &cache, L2ReqType type, BlockAddr block,
           int hit_way, int hint_way)
    {
        if (!observers_.empty())
            deliver(cache, type, block, hit_way, hint_way);
    }

    /** Forward a flush (cold-start boundary) to every observer. */
    void onFlush();

  private:
    void deliver(const WriteBackCache &cache, L2ReqType type,
                 BlockAddr block, int hit_way, int hint_way);

    std::vector<L2Observer *> observers_;
};

/**
 * The memory side of the level-two cache. By default level-two
 * misses are served by an ideal memory; installing a MemorySide
 * lets a further cache level (see ThirdLevelCache) or any custom
 * backend service that traffic — the paper's "level two (or
 * higher) caches".
 */
class MemorySide
{
  public:
    virtual ~MemorySide() = default;

    /** The level two missed: fetch @p l2_block. */
    virtual void fetch(BlockAddr l2_block) = 0;

    /** The level two evicted a dirty line holding @p l2_block. */
    virtual void writeBack(BlockAddr l2_block) = 0;

    /** The hierarchy was flushed. */
    virtual void onFlush() {}
};

/** Counters gathered while running a trace. */
struct HierarchyStats
{
    std::uint64_t proc_refs = 0;   ///< processor references
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;

    std::uint64_t read_ins = 0;
    std::uint64_t read_in_hits = 0;
    std::uint64_t read_in_misses = 0;

    std::uint64_t write_backs = 0;
    std::uint64_t write_back_hits = 0;
    std::uint64_t write_back_misses = 0; ///< inclusion-violation proxy

    std::uint64_t hint_correct = 0; ///< write-back hint pointed at the block
    std::uint64_t hint_wrong = 0;   ///< block moved or was replaced

    std::uint64_t flushes = 0;

    /** Level-one lines invalidated to keep inclusion (when
     *  enforce_inclusion is set). */
    std::uint64_t inclusion_invalidations = 0;
    /** Inclusion invalidations that hit a dirty level-one line
     *  (its data travels to memory with the level-two victim). */
    std::uint64_t inclusion_dirty_invalidations = 0;

    /** Remote (coherency) invalidations that found the block. */
    std::uint64_t coherency_invalidations = 0;

    /** Level-one miss ratio: misses / processor references. */
    double l1MissRatio() const;

    /** Fraction of processor references missing both levels
     *  (the paper's *global miss ratio*). */
    double globalMissRatio() const;

    /** Fraction of level-two requests (read-ins + write-backs) that
     *  miss (the paper's *local miss ratio*). */
    double localMissRatio() const;

    /** Fraction of level-two requests that are write-backs. */
    double writeBackFraction() const;

    /** Fraction of write-backs whose way hint was correct. */
    double hintAccuracy() const;

    /** The field list (util/stats.h), in journal order. */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        v("proc_refs", &HierarchyStats::proc_refs, d);
        v("l1_hits", &HierarchyStats::l1_hits, d);
        v("l1_misses", &HierarchyStats::l1_misses, d);
        v("read_ins", &HierarchyStats::read_ins, d);
        v("read_in_hits", &HierarchyStats::read_in_hits, d);
        v("read_in_misses", &HierarchyStats::read_in_misses, d);
        v("write_backs", &HierarchyStats::write_backs, d);
        v("write_back_hits", &HierarchyStats::write_back_hits, d);
        v("write_back_misses", &HierarchyStats::write_back_misses, d);
        v("hint_correct", &HierarchyStats::hint_correct, d);
        v("hint_wrong", &HierarchyStats::hint_wrong, d);
        v("flushes", &HierarchyStats::flushes, d);
        v("inclusion_invalidations",
          &HierarchyStats::inclusion_invalidations, d);
        v("inclusion_dirty_invalidations",
          &HierarchyStats::inclusion_dirty_invalidations, d);
        v("coherency_invalidations",
          &HierarchyStats::coherency_invalidations, d);
    }
};
static_assert(listsEveryMember<HierarchyStats>());

/** How the level-one cache handles processor writes. */
enum class L1WritePolicy : std::uint8_t {
    /** Dirty lines written back on replacement (the paper's
     *  configuration, chosen to minimize inter-level traffic). */
    WriteBack,
    /** Every write is forwarded to the level two immediately; lines
     *  never become dirty, so replacements are silent. [Shor88]
     *  found this inferior — the write_policy ablation shows why. */
    WriteThrough,
};

/** Configuration of the two-level hierarchy. */
struct HierarchyConfig
{
    CacheGeometry l1;
    CacheGeometry l2;
    /**
     * Allocate a line when a write-back misses in the level two
     * (inclusion was violated). The paper's configuration does not
     * enforce inclusion but monitors these misses; allocating keeps
     * the data consistent.
     */
    bool allocate_on_wb_miss = true;
    /**
     * Enforce multi-level inclusion [Baer88]: when the level two
     * evicts a block, invalidate every level-one line it contains.
     * Guarantees write-backs always hit (enabling the write-back
     * optimization without hints being "hints"), at the price of
     * extra level-one misses. The paper extrapolated the effect to
     * be very small; the inclusion ablation measures it.
     */
    bool enforce_inclusion = false;
    /** Processor-write handling at the level one. */
    L1WritePolicy write_policy = L1WritePolicy::WriteBack;
    /**
     * Level-two victim selection. The paper uses LRU (whose per-set
     * state doubles as the MRU scheme's search list); Fifo and
     * Random are provided for replacement-policy ablations.
     */
    ReplPolicy l2_replacement = ReplPolicy::Lru;
};

/**
 * One level-two request of a write-back level one, tagged with the
 * trace position of the reference that caused it.
 */
struct L2Request
{
    enum class Kind : std::uint8_t {
        ReadIn,    ///< fetch @c block, filling level-one @c frame
        WriteBack, ///< write back @c block, the frame's dirty victim
        Flush,     ///< a flush marker
    };

    std::uint32_t ref = 0;   ///< trace position of the reference
    BlockAddr block = 0;     ///< level-one block address
    std::uint32_t frame = 0; ///< level-one frame (set * assoc + way)
    Kind kind = Kind::ReadIn;
};
static_assert(sizeof(L2Request) <= 16);

/**
 * A level one's requests over one trace, in trace order, held in
 * chunks so the sweep can charge each chunk to a budget before
 * allocating it. Immutable once built: any number of jobs, on any
 * threads, replay one stream through their own L2RequestCursor.
 */
using L2RequestStream = std::vector<std::vector<L2Request>>;

/** One replay's read position in an L2RequestStream. */
class L2RequestCursor
{
  public:
    explicit L2RequestCursor(const L2RequestStream &stream)
        : stream_(stream)
    {
        settle();
    }

    /** The next request, or null when the stream is used up. */
    const L2Request *
    peek() const
    {
        return cur_ == end_ ? nullptr : cur_;
    }

    void
    advance()
    {
        if (++cur_ == end_)
            settle();
    }

  private:
    /** Move to the next non-empty chunk, if there is one. */
    void
    settle()
    {
        while (cur_ == end_ && chunk_ < stream_.size()) {
            const std::vector<L2Request> &c = stream_[chunk_++];
            cur_ = c.data();
            end_ = cur_ + c.size();
        }
    }

    const L2RequestStream &stream_;
    std::size_t chunk_ = 0;
    const L2Request *cur_ = nullptr;
    const L2Request *end_ = nullptr;
};

/**
 * The level-one half: the level-one cache, and what one reference
 * does to it. TwoLevelHierarchy drives lookup() and fill() in
 * lockstep with its level two. On its own, access() runs both back
 * to back and yields the reference's level-two requests.
 */
class LevelOne
{
  public:
    LevelOne(const CacheGeometry &geom, L1WritePolicy policy);

    /**
     * Look up @p ref (not a flush marker). A hit becomes its set's
     * most recently used line and, under write-back, a write marks
     * it dirty. @return the hit frame (set * assoc + way), or -1 on
     * a miss.
     */
    std::int64_t
    lookup(const trace::MemRef &ref)
    {
        const CacheGeometry &geom = cache_.geom();
        BlockAddr block = geom.blockAddrOf(ref.addr);
        std::uint32_t set = geom.setOf(block);
        int way = cache_.findWay(block);
        if (way < 0)
            return -1;
        cache_.touch(set, way);
        if (ref.isWrite() && policy_ == L1WritePolicy::WriteBack)
            cache_.setDirty(set, way);
        return static_cast<std::int64_t>(set) * geom.assoc() + way;
    }

    /** Where fill() put a missed block, and what it displaced. */
    struct Fill
    {
        std::uint32_t frame;  ///< set * assoc + way
        bool write_back;      ///< the victim was dirty
        BlockAddr victim;     ///< its level-one block, if write_back
    };

    /** Fill the block that @p ref missed on (after lookup()). */
    Fill
    fill(const trace::MemRef &ref)
    {
        const CacheGeometry &geom = cache_.geom();
        BlockAddr block = geom.blockAddrOf(ref.addr);
        // Write-through lines are never dirty, so their replacements
        // are silent.
        FillResult fr = cache_.fill(
            block, ref.isWrite() && policy_ == L1WritePolicy::WriteBack);
        return {geom.setOf(block) * geom.assoc() +
                    static_cast<std::uint32_t>(fr.way),
                fr.evicted && fr.victim_dirty, fr.victim_block};
    }

    /**
     * The whole half for @p ref at trace position @p pos: append its
     * requests, at most two, to @p out. A miss yields the read-in
     * and then, for a dirty victim, the write-back; a flush marker
     * flushes the level one and yields a Flush. Write-back policy
     * only: a write-through store's request needs the level two's
     * hint at once.
     */
    void access(const trace::MemRef &ref, std::uint32_t pos,
                std::vector<L2Request> &out);

    WriteBackCache &cache() { return cache_; }
    const WriteBackCache &cache() const { return cache_; }

  private:
    WriteBackCache cache_;
    L1WritePolicy policy_;
};

/** The two-level write-back hierarchy. */
class TwoLevelHierarchy
{
  public:
    explicit TwoLevelHierarchy(const HierarchyConfig &cfg);

    /** Attach a lookup-cost observer (not owned). */
    void addObserver(L2Observer *obs);

    /** Install the level-two's memory side (not owned; optional). */
    void setMemorySide(MemorySide *mem);

    /** References pulled per TraceSource::nextBatch call by run()
     *  and sim::runTrace. */
    static constexpr unsigned kReplayBatch = 64;

    /** Apply one processor reference (or flush marker). */
    void access(const trace::MemRef &ref);

    /**
     * Apply @p n references in trace order: the lockstep replay loop
     * every trace-driven run goes through unless it replays a
     * request stream (replayRequests). Each access prefetches
     * the next reference's level-one and level-two set planes while
     * the current one executes; accesses still commit strictly one
     * at a time, so the statistics do not depend on how a trace is
     * cut into calls. With @p remote set, one remote coherency step
     * (CoherencyTraffic::step) follows every reference.
     */
    void replay(const trace::MemRef *refs, std::size_t n,
                CoherencyTraffic *remote = nullptr);

    /**
     * Stream an entire trace (reset first) through replay(), pulling
     * @p batch references per TraceSource::nextBatch call (0 counts
     * as 1). The statistics are bit-for-bit identical for every batch
     * size (tests/kernels enforces it). When the source stops on a
     * failure, its Error is thrown (ErrorException) after the
     * references it did deliver were applied.
     */
    void run(trace::TraceSource &src, unsigned batch = kReplayBatch);

    /**
     * The filtered replay: apply the level-two requests @p reqs
     * holds for references @p refs[0..n), which sit at trace
     * positions @p first onwards, instead of running the level one.
     * The level-one statistics follow from the references and the
     * read-ins. Each request is checked against its reference (the
     * read-in's block, or the flush marker); a stream that does not
     * match the trace throws an Internal ErrorException. Requires a
     * write-back level one, no enforce_inclusion and no coherency
     * traffic; the result is then identical to replay().
     */
    void replayRequests(const trace::MemRef *refs, std::size_t n,
                        std::uint64_t first, L2RequestCursor &reqs);

    /** Invalidate both levels (cold start). */
    void flushAll();

    /**
     * Coherency invalidation from a remote processor: drop the
     * level-two line holding @p l2_block (its dirty data would go
     * to the requester) and every level-one line it contains.
     * @return true when the block was resident.
     */
    bool remoteInvalidate(BlockAddr l2_block);

    const HierarchyStats &stats() const { return stats_; }
    const WriteBackCache &l1() const { return l1_.cache(); }
    const WriteBackCache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return cfg_; }

    /** Bytes held by both levels' line planes plus the way-hint
     *  plane (what a MemBudget is charged). */
    std::uint64_t
    footprintBytes() const
    {
        return l1().footprintBytes() + l2_.footprintBytes() +
               way_hint_.size() * sizeof(std::int16_t);
    }

  private:
    /** Issue a read-in; @return the level-two way holding the block
     *  after the access. */
    int l2ReadIn(BlockAddr l2_block);

    /** Issue a write-back (or write-through store) carrying the
     *  level-one way hint. */
    void l2WriteBack(BlockAddr l2_block, int hint_way);

    /** A read-in that landed in level-two way @p l2_way filled
     *  level-one frame @p frame: record the frame's new way hint and
     *  @return the old one, its dirty victim's. */
    int
    rehint(std::uint32_t frame, int l2_way)
    {
        return std::exchange(way_hint_[frame],
                             static_cast<std::int16_t>(l2_way));
    }

    /** The level-two block holding level-one block @p l1_block. */
    BlockAddr
    l2BlockOf(BlockAddr l1_block) const
    {
        return cfg_.l2.blockAddrOf(cfg_.l1.byteAddrOf(l1_block));
    }

    /** A flush marker: both levels go cold. */
    void
    flushMarker()
    {
        flushAll();
        ++stats_.flushes;
    }

    /** Invalidate every level-one line inside an evicted level-two
     *  block (inclusion enforcement). */
    void enforceInclusion(BlockAddr evicted_l2_block);

    /** Level-one lines dropL1Lines() invalidated. */
    struct L1Drop
    {
        unsigned lines = 0; ///< resident lines invalidated
        unsigned dirty = 0; ///< of which dirty
    };

    /** Invalidate every level-one line inside @p l2_block and clear
     *  its way hint (inclusion and coherency both need it). */
    L1Drop dropL1Lines(BlockAddr l2_block);

    HierarchyConfig cfg_;
    LevelOne l1_;
    WriteBackCache l2_;
    ObserverFanout fanout_; ///< the level two's observers

    /** Per level-one line: which level-two way holds its block
     *  (-1 unknown). Indexed like the level-one line array. */
    std::vector<std::int16_t> way_hint_;

    MemorySide *mem_side_ = nullptr;
    HierarchyStats stats_;
};

} // namespace mem
} // namespace assoc

#endif // ASSOC_MEM_HIERARCHY_H
