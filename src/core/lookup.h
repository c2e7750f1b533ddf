/**
 * @file
 * The lookup-strategy interface: how a set-associative cache
 * implementation searches the stored tags of one set, and what it
 * costs in *probes* (tag-memory read + compare, the paper's cost
 * unit).
 *
 * A strategy is a pure function of the set's pre-access state: it
 * declares hit/miss itself from t-bit tag compares (as the hardware
 * would), so tag-width truncation effects are faithfully modeled.
 * That state (LookupInput) is the set's t-bit tag plane, its
 * recency order, the cache's own validity word and the t-bit
 * compare of every way against the incoming tag: LookupInput's one
 * constructor runs the eq_mask kernel (core/kernels.h) once, and
 * every scan differs only in the order it walks that mask. The
 * partial-compare lookup adds its k-bit step 1 and prices step 2
 * from the same mask. Probe meters that share a tag width share
 * one input, and so one compare (core/probe_meter.h, MeterBank).
 */

#ifndef ASSOC_CORE_LOOKUP_H
#define ASSOC_CORE_LOOKUP_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "util/stats.h"

namespace assoc {
namespace core {

/** Pre-access snapshot of one set, with t-bit sliced tags. */
struct LookupInput
{
    /**
     * Snapshot one set and compare its tags: the only way to build
     * an input. eq is filled here, through the active kernel
     * table's eq_mask, so no strategy compares tags itself.
     */
    LookupInput(unsigned assoc, const std::uint32_t *stored_tags,
                std::uint64_t valid, const std::uint8_t *mru_order,
                std::uint32_t incoming_tag, std::uint32_t block_addr = 0,
                std::uint32_t set = 0);

    unsigned assoc;                     ///< number of ways
    const std::uint32_t *stored_tags;   ///< t-bit tag per way
    /** The set's validity word, as the cache keeps it: bit w set
     *  iff way w holds a block. */
    std::uint64_t valid;
    /** Way indices from most- to least-recently used. */
    const std::uint8_t *mru_order;
    std::uint32_t incoming_tag;         ///< t-bit incoming tag
    /** Incoming block address (set + full tag, unsliced). Lets
     *  address-indexed strategies (way memoization) key their state;
     *  tag-only strategies ignore it. */
    std::uint32_t block_addr;
    std::uint32_t set;                  ///< set index of this access
    /** The t-bit compare: bit w set iff bit w of valid is set and
     *  stored_tags[w] == incoming_tag, for w < assoc. */
    std::uint64_t eq;
};

/**
 * Micro-event counts underneath the probe total: what hardware
 * structure each probe actually touched. Probes remain the paper's
 * cost unit; events are the energy model's (src/hw) — a k-bit field
 * read, a full t-bit tag read, and a memo-table access cost
 * different energy even when each is "one probe". One access counts
 * in 32 bits (ProbeEvents), a run's totals in 64 (ProbeEventTotals).
 */
template <class Count>
struct BasicProbeEvents
{
    Count tag_reads = 0;    ///< full t-bit tag-array reads
    Count field_reads = 0;  ///< k-bit partial-field reads
    Count tag_compares = 0; ///< full-width tag compares
    Count list_reads = 0;   ///< MRU-list reads
    Count memo_reads = 0;   ///< memo/prediction-table reads
    Count memo_writes = 0;  ///< memo/prediction-table updates

    /** The field list (util/stats.h), shared by every Count. */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        v("tag_reads", &BasicProbeEvents::tag_reads, d);
        v("field_reads", &BasicProbeEvents::field_reads, d);
        v("tag_compares", &BasicProbeEvents::tag_compares, d);
        v("list_reads", &BasicProbeEvents::list_reads, d);
        v("memo_reads", &BasicProbeEvents::memo_reads, d);
        v("memo_writes", &BasicProbeEvents::memo_writes, d);
    }

    /** The @p i-th member of the list. */
    static consteval Count BasicProbeEvents::*
    field(std::size_t i)
    {
        Count BasicProbeEvents::*at = nullptr;
        fields([&](const char *, Count BasicProbeEvents::*m, StatClass) {
            if (i-- == 0)
                at = m;
        });
        return at;
    }

    /** Add @p o's counts, whatever their width: one add per event. */
    template <class Other>
    constexpr BasicProbeEvents &
    operator+=(const BasicProbeEvents<Other> &o)
    {
        // Every member is a Count, and the list names them all.
        constexpr std::size_t n = sizeof(BasicProbeEvents) / sizeof(Count);
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            ((this->*field(I) += o.*BasicProbeEvents<Other>::field(I)), ...);
        }(std::make_index_sequence<n>());
        return *this;
    }
};

using ProbeEvents = BasicProbeEvents<std::uint32_t>;
using ProbeEventTotals = BasicProbeEvents<std::uint64_t>;
static_assert(listsEveryMember<ProbeEvents>());
static_assert(listsEveryMember<ProbeEventTotals>());

/** What a lookup concluded and what it cost. */
struct LookupResult
{
    bool hit = false;
    int way = -1;        ///< matching way (valid when hit)
    unsigned probes = 0; ///< tag-memory probes consumed
    ProbeEvents events;  ///< event breakdown behind the probe count
    /** True when a memo table supplied the way and every tag probe
     *  was skipped (probes == 0). Only WayMemo sets it. */
    bool memo_hit = false;
};

/** Abstract search strategy over one set. */
class LookupStrategy
{
  public:
    virtual ~LookupStrategy() = default;

    /** Search the set; count probes. */
    virtual LookupResult lookup(const LookupInput &in) const = 0;

    /** Display name ("Traditional", "Naive", "MRU", "Partial"). */
    virtual std::string name() const = 0;

    /**
     * The hierarchy was flushed (cold-start boundary): any
     * address-keyed strategy state (memo tables) is now stale and
     * must be dropped. Stateless strategies ignore it.
     */
    virtual void onFlush() {}
};

/**
 * Probes a scan spends to reach position @p pos (0-based) of an
 * order of @p n ways when each probe reads @p b of them: the probes
 * up to and including pos's group. The plain serial scans (b = 1)
 * and one-probe lookups (b >= n) take no division.
 */
inline unsigned
probesThrough(unsigned pos, unsigned b, unsigned n)
{
    return b == 1 ? pos + 1 : b >= n ? 1 : pos / b + 1;
}

/**
 * The serial scan in physical way order, reading b stored tags per
 * probe (Section 1's b x t tag memories): the naive implementation
 * (Figure 1b) at b = 1, the traditional one (Figure 1a) at b = a,
 * and the intermediate widths the paper mentions but does not
 * evaluate. A hit in scan group g (0-based) costs g + 1 probes; a
 * miss reads all ceil(a/b) groups.
 */
class NaiveLookup : public LookupStrategy
{
  public:
    /** The naive scan: one tag per probe. */
    NaiveLookup() : NaiveLookup(1, "Naive") {}

    /** The b-wide scan "WideNaive-b": @p width tags per probe. */
    static NaiveLookup wide(unsigned width);

    LookupResult lookup(const LookupInput &in) const override;
    std::string name() const override { return name_; }

    /** Tags read per probe (b); 0 reads the whole set at once. */
    unsigned width() const { return width_; }

  protected:
    NaiveLookup(unsigned width, std::string name)
        : width_(width), name_(std::move(name))
    {}

  private:
    unsigned width_;
    std::string name_;
};

/**
 * The traditional implementation (Figure 1a): all a tags are read
 * and compared in parallel — the way-order scan with b = a, always
 * exactly one probe.
 */
class TraditionalLookup : public NaiveLookup
{
  public:
    TraditionalLookup() : NaiveLookup(0, "Traditional") {}
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_LOOKUP_H
