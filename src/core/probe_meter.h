/**
 * @file
 * Probe meters: observers that price every level-two access under
 * one lookup strategy while a single simulation runs.
 *
 * Accounting follows the paper exactly:
 *  - With the write-back optimization (the default from Figure 3
 *    on), write-backs cost zero probes for every scheme, but they
 *    are still counted as (hit) references in the averages.
 *  - The "hits" aggregate therefore covers read-in hits plus
 *    write-backs; "total" additionally covers read-in misses
 *    (Table 4's columns).
 *  - Hit/miss *categories* come from the simulator's full-tag ground
 *    truth; tag-width truncation can, in principle, make a scheme
 *    declare a false hit (an alias) — counted separately.
 *
 * A run's meters are attached through one MeterBank: per level-two
 * access it cuts the set's t-bit tags from the cache's block plane
 * and builds the LookupInput, and with it the tag compare, once per
 * distinct tag width, and every meter prices the access from that
 * shared input. A lone ProbeMeter observes through the same path
 * with an input of its own.
 */

#ifndef ASSOC_CORE_PROBE_METER_H
#define ASSOC_CORE_PROBE_METER_H

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/lookup.h"
#include "mem/hierarchy.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace assoc {
namespace core {

/** Shared meter settings. */
struct MeterConfig
{
    /** Stored tag width t (probe costs are computed on t-bit tags). */
    unsigned tag_bits = 16;
    /** Model the write-back optimization (zero-probe write-backs). */
    bool wb_optimization = true;
};

/** Aggregated probe statistics for one strategy. */
struct ProbeStats
{
    MeanAccum read_in_hits;   ///< probes on read-ins that hit
    MeanAccum read_in_misses; ///< probes on read-ins that miss
    MeanAccum write_backs;    ///< probes on write-backs

    std::uint64_t alias_hits = 0; ///< scheme hit where simulator missed
    std::uint64_t alias_wrong_way = 0; ///< scheme hit a different way

    ProbeEventTotals events; ///< the energy model's input (src/hw)
    /** Accesses where a memo table skipped every tag probe. */
    std::uint64_t memo_hits = 0;
    /** Metered (non-free) accesses contributing to events. */
    std::uint64_t metered = 0;

    /** Mean probes over read-in hits + write-backs (Table 4 "Hits"). */
    double hitsMean() const;

    /** Mean probes over read-ins only (Figures 4-6 use the hit part). */
    double readInMean() const;

    /** Mean probes over everything (Table 4 "Total"). */
    double totalMean() const;

    /** The field list (util/stats.h), in journal order. */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        v("read_in_hits", &ProbeStats::read_in_hits, d);
        v("read_in_misses", &ProbeStats::read_in_misses, d);
        v("write_backs", &ProbeStats::write_backs, d);
        v("alias_hits", &ProbeStats::alias_hits, d);
        v("alias_wrong_way", &ProbeStats::alias_wrong_way, d);
        v("events", &ProbeStats::events, d);
        v("memo_hits", &ProbeStats::memo_hits, d);
        v("metered", &ProbeStats::metered, d);
    }
};
static_assert(listsEveryMember<ProbeStats>());

class ProbeMeter;

/**
 * Checker hook: sees every metered lookup with exactly the t-bit
 * sliced inputs the strategy saw and the result it produced, before
 * the meter's own ground-truth cross-check runs. Implemented by the
 * invariant checkers in src/check; attachable to any simulation via
 * ProbeMeter::setAuditor (or sim::RunSpec::auditor).
 */
class LookupAuditor
{
  public:
    virtual ~LookupAuditor() = default;

    /** Called once per metered (non-free) level-two access. */
    virtual void audit(const ProbeMeter &meter,
                       const mem::L2AccessView &view,
                       const LookupInput &in,
                       const LookupResult &res) = 0;
};

/**
 * One strategy attached to the hierarchy. Not owned by the
 * hierarchy; keep it alive for the duration of the run.
 */
class ProbeMeter : public mem::L2Observer
{
  public:
    ProbeMeter(std::unique_ptr<LookupStrategy> strategy,
               const MeterConfig &cfg);

    /** price() with an input of this meter's own. */
    void observe(const mem::L2AccessView &view) override;

    /**
     * Price one access. A write-back the write-back optimization
     * makes free records zero probes without a lookup, and
     * @p input is never called; any other access runs the strategy
     * on input(), the set's LookupInput at this meter's tag width
     * (sliceInput), and records the result after the auditor, the
     * alias counts and the ground-truth check.
     */
    template <class Input>
    void
    price(const mem::L2AccessView &view, Input &&input)
    {
        if (view.type == mem::L2ReqType::WriteBack &&
            cfg_.wb_optimization) {
            // The level-one cache knows the way: zero probes;
            // counted as a hit reference in the averages (Table 4
            // caption).
            stats_.write_backs.record(0.0);
            return;
        }
        record(view, input());
    }

    /** Forward the flush to address-keyed strategy state (memo
     *  tables go stale across a cold-start boundary). */
    void onFlush() override;

    /** Attach an invariant auditor (not owned; nullptr detaches). */
    void setAuditor(LookupAuditor *auditor) { auditor_ = auditor; }

    const ProbeStats &stats() const { return stats_; }
    ProbeStats &stats() { return stats_; }
    const LookupStrategy &strategy() const { return *strategy_; }
    const MeterConfig &config() const { return cfg_; }
    std::string name() const { return strategy_->name(); }

  private:
    /** Run the strategy on @p in and record what it cost. */
    void record(const mem::L2AccessView &view, const LookupInput &in);

    std::unique_ptr<LookupStrategy> strategy_;
    MeterConfig cfg_;
    ProbeStats stats_;
    LookupAuditor *auditor_ = nullptr;

    /** Scratch for observe()'s t-bit sliced tags. */
    std::vector<std::uint32_t> tags_;
};

/**
 * The lookup input of @p view's access at tag width @p tag_bits:
 * scratch[w] = sliceTag(fullTagOf(view.blocks[w]), t) for every way
 * w, valid or not, written in one pass over the set's block plane,
 * then the one LookupInput constructor, which compares them. Valid
 * while @p scratch and the view are.
 */
LookupInput sliceInput(const mem::L2AccessView &view, unsigned tag_bits,
                       std::vector<std::uint32_t> &scratch);

/**
 * The meters of one run as one observer: per access it builds the
 * input of each distinct tag width once, on first use, and each
 * meter, in the order added, prices the access through
 * ProbeMeter::price. A write-back every meter prices at zero builds
 * no input at all. sim::runTrace attaches its meters this way.
 */
class MeterBank : public mem::L2Observer
{
  public:
    /** Append @p meter (not owned; keep it alive for the run). */
    void add(ProbeMeter *meter);

    void observe(const mem::L2AccessView &view) override;

    /** Forward the flush to every meter, in order. */
    void onFlush() override;

  private:
    /** One distinct tag width and its per-access input. */
    struct Width
    {
        unsigned tag_bits;
        std::vector<std::uint32_t> tags; ///< sliced-tag scratch
        std::optional<LookupInput> in;   ///< this access's, once built
    };

    /** Each meter with the index of its width in widths_. */
    std::vector<std::pair<ProbeMeter *, unsigned>> meters_;
    std::vector<Width> widths_;
};

/**
 * Records the MRU-distance distribution f_i of read-in hits
 * (Figure 5, right graph): distance 1 = the hit was to the
 * most-recently-used way of its set.
 */
class MruDistanceMeter : public mem::L2Observer
{
  public:
    explicit MruDistanceMeter(unsigned assoc);

    void observe(const mem::L2AccessView &view) override;

    /** Distribution over distances; bucket i holds distance i
     *  (bucket 0 unused). */
    const Histogram &distances() const { return hist_; }

    /** f_i: probability a read-in hit is at MRU distance @p i
     *  (1-based), conditioned on hitting. */
    double f(unsigned i) const;

  private:
    Histogram hist_;
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_PROBE_METER_H
