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
 * Lookup-cost observers (src/core) attach here and are shown every
 * level-two access before it commits.
 */

#ifndef ASSOC_MEM_HIERARCHY_H
#define ASSOC_MEM_HIERARCHY_H

#include <cstdint>
#include <vector>

#include "mem/cache.h"
#include "trace/trace_source.h"

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
 * The per-way planes (full_tags / valid / mru_order) are a decoded
 * scratch view of the accessed set, produced once per access by the
 * hierarchy and shared by every observer: they alias hierarchy
 * scratch buffers and are only valid for the duration of observe().
 * They carry exactly what core::LookupInput needs, so probe meters
 * feed strategies without touching the cache's packed state; @c
 * cache remains available for anything else (auditors, tests).
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

    /** Full (untruncated) tag per way of the accessed set. */
    const std::uint32_t *full_tags = nullptr;
    /** 0/1 valid flag per way. */
    const std::uint8_t *valid = nullptr;
    /** Way indices from most- to least-recently used. */
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
};

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
     * Apply @p n references in trace order: the one replay loop
     * every trace-driven run goes through. Each access prefetches
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
     * size (tests/kernels enforces it).
     */
    void run(trace::TraceSource &src, unsigned batch = kReplayBatch);

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
    const WriteBackCache &l1() const { return l1_; }
    const WriteBackCache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return cfg_; }

    /** Bytes held by both levels' line planes plus the way-hint and
     *  observer scratch planes (what a MemBudget is charged). */
    std::uint64_t
    footprintBytes() const
    {
        return l1_.footprintBytes() + l2_.footprintBytes() +
               way_hint_.size() * sizeof(std::int16_t) +
               scratch_tags_.size() * sizeof(std::uint32_t) +
               scratch_valid_.size() + scratch_order_.size();
    }

  private:
    /** Issue a read-in; @return the level-two way holding the block
     *  after the access. */
    int l2ReadIn(BlockAddr l2_block);

    /** Issue a write-back (or write-through store) carrying the
     *  level-one way hint. */
    void l2WriteBack(BlockAddr l2_block, int hint_way);

    /** Invalidate every level-one line inside an evicted level-two
     *  block (inclusion enforcement). */
    void enforceInclusion(BlockAddr evicted_l2_block);

    /** Decode the accessed set into the scratch view planes and
     *  deliver @p view to every observer. */
    void notify(L2AccessView &view);

    HierarchyConfig cfg_;
    WriteBackCache l1_;
    WriteBackCache l2_;

    // Scratch planes backing L2AccessView's decoded set view; sized
    // to the level-two associativity, refilled once per observed
    // access (skipped entirely when no observer is attached).
    std::vector<std::uint32_t> scratch_tags_;
    std::vector<std::uint8_t> scratch_valid_;
    std::vector<std::uint8_t> scratch_order_;

    /** Per level-one line: which level-two way holds its block
     *  (-1 unknown). Indexed like the level-one line array. */
    std::vector<std::int16_t> way_hint_;

    std::vector<L2Observer *> observers_;
    MemorySide *mem_side_ = nullptr;
    HierarchyStats stats_;
};

} // namespace mem
} // namespace assoc

#endif // ASSOC_MEM_HIERARCHY_H
