#include "check/fuzz.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/way_memo.h"
#include "util/bitops.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/rng.h"

namespace assoc {
namespace check {

namespace {

/** Probe sums are integral by construction; digest them exactly. */
void
fnvMixMean(std::uint64_t &h, const MeanAccum &m)
{
    fnvMix(h, m.count());
    fnvMix(h, static_cast<std::uint64_t>(m.sum()));
}

// ---------------------------------------------------------------
// Deliberately broken strategies (harness self-tests).
//
// Each subclasses the real strategy so the checkers' type-based
// dispatch (probeBoundsFor, referenceLookup) still recognizes the
// scheme — exactly the situation of a genuine implementation bug.
// ---------------------------------------------------------------

/** Naive scan that never examines way 0. */
class BrokenNaive final : public core::NaiveLookup
{
  public:
    core::LookupResult
    lookup(const core::LookupInput &in) const override
    {
        core::LookupResult res;
        for (unsigned w = 1; w < in.assoc; ++w) {
            ++res.probes;
            if (((in.valid >> w) & 1) != 0 &&
                in.stored_tags[w] == in.incoming_tag) {
                res.hit = true;
                res.way = static_cast<int>(w);
                return res;
            }
        }
        return res;
    }
};

/** MRU scan that under-reports its probe count by one. */
class BrokenMru final : public core::MruLookup
{
  public:
    using core::MruLookup::MruLookup;

    core::LookupResult
    lookup(const core::LookupInput &in) const override
    {
        core::LookupResult res = core::MruLookup::lookup(in);
        if (res.probes > 1)
            --res.probes;
        return res;
    }
};

/** Partial compare whose step-1 filter drops way 0's candidacy. */
class BrokenPartial final : public core::PartialLookup
{
  public:
    using core::PartialLookup::PartialLookup;

    core::LookupResult
    lookup(const core::LookupInput &in) const override
    {
        core::LookupResult res = core::PartialLookup::lookup(in);
        if (res.hit && res.way == 0) {
            res.hit = false;
            res.way = -1;
        }
        return res;
    }
};

/**
 * Way memo that trusts stale entries: on a memo hit it reports the
 * next way over, as if the table entry survived an eviction it
 * should have been invalidated by.
 */
class BrokenWayMemo final : public core::WayMemoLookup
{
  public:
    using core::WayMemoLookup::WayMemoLookup;

    core::LookupResult
    lookup(const core::LookupInput &in) const override
    {
        core::LookupResult res = core::WayMemoLookup::lookup(in);
        if (res.memo_hit)
            res.way = (res.way + 1) % static_cast<int>(in.assoc);
        return res;
    }
};

std::unique_ptr<core::LookupStrategy>
makeStrategy(const core::SchemeSpec &spec, BugInjection inject)
{
    switch (inject) {
      case BugInjection::None:
        break;
      case BugInjection::NaiveSkip:
        if (spec.kind == core::SchemeKind::Naive)
            return std::make_unique<BrokenNaive>();
        break;
      case BugInjection::MruUndercount:
        if (spec.kind == core::SchemeKind::Mru)
            return std::make_unique<BrokenMru>(spec.mru_list_len);
        break;
      case BugInjection::PartialFilter:
        if (spec.kind == core::SchemeKind::Partial) {
            core::PartialConfig cfg;
            cfg.tag_bits = spec.tag_bits;
            cfg.field_bits = spec.partial_k;
            cfg.subsets = spec.partial_subsets;
            cfg.transform = spec.transform;
            return std::make_unique<BrokenPartial>(cfg);
        }
        break;
      case BugInjection::MemoStale:
        if (spec.kind == core::SchemeKind::WayMemo) {
            core::SchemeSpec inner = spec;
            inner.kind = spec.memo_underlying;
            core::WayMemoConfig cfg;
            cfg.entries = spec.memo_entries;
            cfg.region_bits = spec.memo_region_bits;
            cfg.tagged = spec.memo_tagged;
            return std::make_unique<BrokenWayMemo>(
                inner.makeStrategy(), cfg);
        }
        break;
    }
    return spec.makeStrategy();
}

std::string
schemeName(const core::SchemeSpec &s)
{
    std::ostringstream os;
    os << core::schemeKindName(s.kind);
    if (s.kind == core::SchemeKind::Mru && s.mru_list_len != 0)
        os << "/" << s.mru_list_len;
    if (s.kind == core::SchemeKind::WideNaive ||
        s.kind == core::SchemeKind::WideMru)
        os << "-" << s.width;
    if (s.kind == core::SchemeKind::Partial)
        os << "(k=" << s.partial_k << ",s=" << s.partial_subsets
           << "," << core::transformKindName(s.transform) << ")";
    if (s.kind == core::SchemeKind::WayMemo)
        os << "(e=" << s.memo_entries << ",r=" << s.memo_region_bits
           << (s.memo_tagged ? ",tagged" : ",untagged") << ")+"
           << core::schemeKindName(s.memo_underlying);
    return os.str();
}

// ---------------------------------------------------------------
// Post-run probe-statistic cross-checks (Section 2 identities).
// ---------------------------------------------------------------

void
expectCount(ViolationLog &log, const std::string &who,
            const std::string &what, std::uint64_t got,
            std::uint64_t want)
{
    if (got != want)
        log.add(who + ": " + what + " count " + std::to_string(got) +
                " != simulator's " + std::to_string(want));
}

void
expectSum(ViolationLog &log, const std::string &who,
          const std::string &what, const MeanAccum &m,
          std::uint64_t per_event)
{
    // Probe counts are small integers, so the accumulated sum is an
    // exact integral double and == is meaningful.
    double want = static_cast<double>(m.count() * per_event);
    if (m.sum() != want)
        log.add(who + ": " + what + " probe sum " +
                std::to_string(m.sum()) + " != " +
                std::to_string(m.count()) + " events * " +
                std::to_string(per_event));
}

void
checkMeterStats(const FuzzCase &c, const mem::HierarchyStats &hs,
                const core::ProbeMeter &meter,
                const core::SchemeSpec &spec, ViolationLog &log)
{
    const core::ProbeStats &ps = meter.stats();
    const unsigned a = c.hier.l2.assoc();
    const std::string who = schemeName(spec);

    // Bucketing follows the simulator's full-tag ground truth, so
    // event counts must agree with HierarchyStats for every scheme.
    expectCount(log, who, "read-in hit",
                ps.read_in_hits.count(), hs.read_in_hits);
    expectCount(log, who, "read-in miss",
                ps.read_in_misses.count(), hs.read_in_misses);
    expectCount(log, who, "write-back",
                ps.write_backs.count(), hs.write_backs);

    const bool strict =
        spec.tag_bits >= c.hier.l2.fullTagBits();
    if (strict && (ps.alias_hits != 0 || ps.alias_wrong_way != 0))
        log.add(who + ": alias counters nonzero (" +
                std::to_string(ps.alias_hits) + "/" +
                std::to_string(ps.alias_wrong_way) +
                ") with full-width tags");

    if (c.wb_optimization)
        expectSum(log, who, "write-back", ps.write_backs, 0);

    // Exact per-event costs (Section 2). An alias hit lands in the
    // miss bucket with a hit's probe count, so the miss identities
    // only hold when no alias occurred.
    switch (spec.kind) {
      case core::SchemeKind::Traditional:
        expectSum(log, who, "read-in hit", ps.read_in_hits, 1);
        expectSum(log, who, "read-in miss", ps.read_in_misses, 1);
        if (!c.wb_optimization)
            expectSum(log, who, "write-back", ps.write_backs, 1);
        break;
      case core::SchemeKind::Naive:
        if (ps.alias_hits == 0)
            expectSum(log, who, "read-in miss", ps.read_in_misses, a);
        break;
      case core::SchemeKind::Mru:
        // A miss reads the list then scans all a ways, whatever the
        // list length.
        if (ps.alias_hits == 0)
            expectSum(log, who, "read-in miss", ps.read_in_misses,
                      a + 1);
        break;
      case core::SchemeKind::Partial:
        break; // per-lookup bounds already cover it
      case core::SchemeKind::WayMemo:
        // A memo hit needs the underlying scheme to hit, so every
        // miss costs exactly the underlying scheme's miss probes.
        if (ps.alias_hits == 0) {
            switch (spec.memo_underlying) {
              case core::SchemeKind::Traditional:
                expectSum(log, who, "read-in miss",
                          ps.read_in_misses, 1);
                break;
              case core::SchemeKind::Naive:
                expectSum(log, who, "read-in miss",
                          ps.read_in_misses, a);
                break;
              case core::SchemeKind::Mru:
                expectSum(log, who, "read-in miss",
                          ps.read_in_misses, a + 1);
                break;
              default:
                break;
            }
        }
        break;
      case core::SchemeKind::WayPredict:
        // A miss probes the predicted way then every other way at
        // once: always two probes (one at a = 1).
        if (ps.alias_hits == 0)
            expectSum(log, who, "read-in miss", ps.read_in_misses,
                      a > 1 ? 2 : 1);
        break;
      case core::SchemeKind::SwapMru:
        // No list to read: a miss scans all a frames.
        if (ps.alias_hits == 0)
            expectSum(log, who, "read-in miss", ps.read_in_misses, a);
        break;
      case core::SchemeKind::WideNaive:
      case core::SchemeKind::WideMru: {
        // A miss reads every group of b tags, after the list read
        // for WideMru.
        const unsigned groups = (a + spec.width - 1) / spec.width;
        const bool list = spec.kind == core::SchemeKind::WideMru;
        if (ps.alias_hits == 0)
            expectSum(log, who, "read-in miss", ps.read_in_misses,
                      groups + (list ? 1 : 0));
        break;
      }
    }
}

/**
 * Memoization must not change outcomes: a memo scheme's meter must
 * report exactly the alias counters of its underlying scheme's
 * meter (the only scheme-declared verdict state the meter keeps).
 */
void
checkMemoOutcomeIdentity(
    const FuzzCase &c,
    const std::vector<std::unique_ptr<core::ProbeMeter>> &meters,
    ViolationLog &log)
{
    for (std::size_t i = 0; i < c.schemes.size(); ++i) {
        const core::SchemeSpec &s = c.schemes[i];
        if (s.kind != core::SchemeKind::WayMemo)
            continue;
        for (std::size_t j = 0; j < c.schemes.size(); ++j) {
            const core::SchemeSpec &u = c.schemes[j];
            if (u.kind != s.memo_underlying ||
                u.tag_bits != s.tag_bits)
                continue;
            if (u.kind == core::SchemeKind::Mru &&
                u.mru_list_len != s.mru_list_len)
                continue;
            const core::ProbeStats &mm = meters[i]->stats();
            const core::ProbeStats &um = meters[j]->stats();
            if (mm.alias_hits != um.alias_hits ||
                mm.alias_wrong_way != um.alias_wrong_way)
                log.add(schemeName(s) +
                        ": outcome counters diverge from " +
                        schemeName(u) + " (alias " +
                        std::to_string(mm.alias_hits) + "/" +
                        std::to_string(mm.alias_wrong_way) +
                        " vs " + std::to_string(um.alias_hits) + "/" +
                        std::to_string(um.alias_wrong_way) + ")");
            break;
        }
    }
}

bool
inclusionGuaranteed(const mem::HierarchyConfig &cfg)
{
    return cfg.enforce_inclusion && cfg.allocate_on_wb_miss &&
           cfg.write_policy == mem::L1WritePolicy::WriteBack;
}

} // namespace

BugInjection
bugInjectionFromString(const std::string &s)
{
    if (s == "none")
        return BugInjection::None;
    if (s == "naive-skip")
        return BugInjection::NaiveSkip;
    if (s == "mru-undercount")
        return BugInjection::MruUndercount;
    if (s == "partial-filter")
        return BugInjection::PartialFilter;
    if (s == "memo-stale")
        return BugInjection::MemoStale;
    fatal("unknown injection '" + s +
          "' (expected none|naive-skip|mru-undercount|partial-filter|"
          "memo-stale)");
}

std::string
FuzzCase::describe() const
{
    std::ostringstream os;
    os << "L1 " << hier.l1.name() << " L2 " << hier.l2.name()
       << " repl=" << mem::replPolicyName(hier.l2_replacement)
       << " t=" << tag_bits
       << (wb_optimization ? " wb-opt" : " no-wb-opt");
    if (hier.enforce_inclusion)
        os << " inclusion";
    if (hier.write_policy == mem::L1WritePolicy::WriteThrough)
        os << " write-through";
    os << " schemes=[";
    for (std::size_t i = 0; i < schemes.size(); ++i)
        os << (i ? " " : "") << schemeName(schemes[i]);
    os << "] refs=" << refs.size();
    return os.str();
}

FuzzCase
sampleCase(std::uint64_t seed, std::uint64_t index)
{
    FuzzCase c;
    c.case_seed =
        SplitMix64(seed ^ (index * 0x9E3779B97F4A7C15ULL)).next();
    Pcg32 rng(c.case_seed, /*stream=*/0x66757a7aULL);

    // --- hierarchy ---
    static const std::uint32_t kBlocks[] = {16, 32, 64};
    const std::uint32_t l2_block = kBlocks[rng.below(3)];
    static const std::uint32_t kAssoc[] = {2, 4, 8, 16};
    const std::uint32_t a = kAssoc[rng.below(4)];
    const std::uint32_t l2_sets = 1u << rng.below(6); // 1..32
    c.hier.l2 = mem::CacheGeometry(l2_block * a * l2_sets, l2_block, a);

    // L1 blocks must not exceed L2 blocks for inclusion to make
    // sense; keep them >= 8 bytes.
    const unsigned l2_block_log = c.hier.l2.offsetBits();
    const std::uint32_t l1_block =
        1u << (3 + rng.below(l2_block_log - 2)); // 8..l2_block
    const std::uint32_t l1_assoc = rng.chance(0.2) ? 2 : 1;
    const std::uint32_t l1_sets = 1u << rng.below(5); // 1..16
    c.hier.l1 =
        mem::CacheGeometry(l1_block * l1_assoc * l1_sets, l1_block,
                           l1_assoc);

    c.hier.enforce_inclusion = rng.chance(0.3);
    if (c.hier.enforce_inclusion) {
        c.hier.allocate_on_wb_miss = true;
        c.hier.write_policy = mem::L1WritePolicy::WriteBack;
    } else {
        c.hier.allocate_on_wb_miss = rng.chance(0.8);
        c.hier.write_policy = rng.chance(0.15)
                                  ? mem::L1WritePolicy::WriteThrough
                                  : mem::L1WritePolicy::WriteBack;
    }
    static const mem::ReplPolicy kRepl[] = {
        mem::ReplPolicy::Lru,    mem::ReplPolicy::Lru,
        mem::ReplPolicy::Lru,    mem::ReplPolicy::Fifo,
        mem::ReplPolicy::Random, mem::ReplPolicy::TreePlru,
    };
    c.hier.l2_replacement = kRepl[rng.below(6)];
    c.wb_optimization = rng.chance(0.8);

    // --- tag width: full-width (strict oracle agreement) or
    //     truncated (alias accounting paths) ---
    const unsigned full = c.hier.l2.fullTagBits();
    const double r = rng.uniform();
    if (r < 0.3)
        c.tag_bits = 32;
    else if (r < 0.6)
        c.tag_bits = full;
    else
        c.tag_bits = full > 5 ? 4 + rng.below(full - 4) : full;

    // --- schemes ---
    auto add = [&c](core::SchemeSpec s) {
        s.tag_bits = c.tag_bits;
        c.schemes.push_back(s);
    };
    core::SchemeSpec spec;
    spec.kind = core::SchemeKind::Traditional;
    add(spec);
    spec.kind = core::SchemeKind::Naive;
    add(spec);
    spec.kind = core::SchemeKind::Mru;
    spec.mru_list_len = 0;
    add(spec);
    spec.mru_list_len = 1 + rng.below(a); // reduced (or full) list
    add(spec);

    const unsigned s_log = rng.below(log2Ceil(a) + 1);
    const unsigned subsets = 1u << s_log;
    const unsigned group = a / subsets;
    if (c.tag_bits / group >= 1) {
        core::SchemeSpec p;
        p.kind = core::SchemeKind::Partial;
        p.partial_subsets = subsets;
        const unsigned kmax = std::min(c.tag_bits / group, 8u);
        p.partial_k = 1 + rng.below(kmax);
        static const core::TransformKind kXf[] = {
            core::TransformKind::None,
            core::TransformKind::XorLow,
            core::TransformKind::Improved,
            core::TransformKind::Swap,
        };
        p.transform = kXf[rng.below(4)];
        add(p);
    }

    core::SchemeSpec wp;
    wp.kind = core::SchemeKind::WayPredict;
    add(wp);

    core::SchemeSpec wm;
    wm.kind = core::SchemeKind::WayMemo;
    wm.memo_entries = 1u << (2 + rng.below(5)); // 4..64 entries
    wm.memo_region_bits = rng.below(3);         // 1..4 blocks/region
    wm.memo_tagged = rng.chance(0.7);
    static const core::SchemeKind kUnder[] = {
        core::SchemeKind::Traditional,
        core::SchemeKind::Naive,
        core::SchemeKind::Mru,
    };
    wm.memo_underlying = kUnder[rng.below(3)];
    add(wm);

    // --- synthetic trace: a hot subset inside a wider region, a
    //     trickle of far addresses, flushes, and (with truncated
    //     tags) deliberate alias partners that share the set index
    //     and the low t tag bits but differ above ---
    const unsigned nrefs = 100 + rng.below(701);
    const std::uint32_t region_blocks = 16 + rng.below(241);
    const std::uint32_t gran = l1_block;
    const std::uint32_t base = rng.next() & ~(gran - 1);
    const std::uint32_t hot_blocks = 4 + rng.below(29);
    const double p_hot = 0.5 + 0.4 * rng.uniform();
    const double p_write = 0.1 + 0.3 * rng.uniform();
    const unsigned alias_shift =
        c.hier.l2.offsetBits() + c.hier.l2.indexBits() + c.tag_bits;

    c.refs.reserve(nrefs);
    for (unsigned i = 0; i < nrefs; ++i) {
        if (rng.chance(0.004)) {
            c.refs.push_back(trace::MemRef::flush());
            continue;
        }
        trace::MemRef ref;
        if (rng.chance(0.01)) {
            ref.addr = rng.next();
        } else {
            const std::uint32_t blk = rng.chance(p_hot)
                                          ? rng.below(hot_blocks)
                                          : rng.below(region_blocks);
            ref.addr = base + blk * gran + rng.below(gran);
            if (alias_shift < 32 && rng.chance(0.05))
                ref.addr ^= 1u << (alias_shift +
                                   rng.below(32 - alias_shift));
        }
        const double t = rng.uniform();
        ref.type = t < p_write ? trace::RefType::Write
                   : t < p_write + 0.2 ? trace::RefType::Ifetch
                                       : trace::RefType::Read;
        ref.pid = static_cast<std::uint8_t>(rng.below(4));
        c.refs.push_back(ref);
    }
    return c;
}

CaseResult
runCase(const FuzzCase &c, BugInjection inject,
        const std::vector<trace::MemRef> *refs)
{
    CaseResult out;
    const std::vector<trace::MemRef> &stream = refs ? *refs : c.refs;
    try {
        mem::TwoLevelHierarchy hier(c.hier);
        InvariantAuditor auditor(&out.log);
        // Attached as sim::runTrace attaches them: one bank, whose
        // meters share an input per tag width (a case mixes widths).
        std::vector<std::unique_ptr<core::ProbeMeter>> meters;
        core::MeterBank bank;
        meters.reserve(c.schemes.size());
        for (const core::SchemeSpec &spec : c.schemes) {
            core::MeterConfig mcfg;
            mcfg.tag_bits = spec.tag_bits;
            mcfg.wb_optimization = c.wb_optimization;
            meters.push_back(std::make_unique<core::ProbeMeter>(
                makeStrategy(spec, inject), mcfg));
            meters.back()->setAuditor(&auditor);
            bank.add(meters.back().get());
        }
        if (!meters.empty())
            hier.addObserver(&bank);
        // Self-checking observer: panics if a hit way is ever
        // missing from the recency order.
        core::MruDistanceMeter dist(c.hier.l2.assoc());
        hier.addObserver(&dist);

        bool aborted = false;
        std::uint64_t n = 0;
        try {
            for (const trace::MemRef &ref : stream) {
                hier.access(ref);
                if ((++n & 127u) == 0 && inclusionGuaranteed(c.hier))
                    checkInclusion(hier, out.log);
            }
        } catch (const PanicError &e) {
            out.log.add(std::string("panic during run: ") + e.what());
            aborted = true;
        } catch (const FatalError &e) {
            out.log.add(std::string("fatal during run: ") + e.what());
            aborted = true;
        }
        out.accesses = auditor.audited();

        if (!aborted) {
            checkAllRecencyOrders(hier.l1(), out.log);
            checkAllRecencyOrders(hier.l2(), out.log);
            if (inclusionGuaranteed(c.hier))
                checkInclusion(hier, out.log);
            for (std::size_t i = 0; i < meters.size(); ++i)
                checkMeterStats(c, hier.stats(), *meters[i],
                                c.schemes[i], out.log);
            checkMemoOutcomeIdentity(c, meters, out.log);
        }

        std::uint64_t h = kFnvInit;
        const mem::HierarchyStats &hs = hier.stats();
        fnvMix(h, hs.proc_refs);
        fnvMix(h, hs.l1_hits);
        fnvMix(h, hs.read_ins);
        fnvMix(h, hs.read_in_hits);
        fnvMix(h, hs.write_backs);
        fnvMix(h, hs.write_back_hits);
        fnvMix(h, hs.hint_correct);
        fnvMix(h, hs.flushes);
        fnvMix(h, hs.inclusion_invalidations);
        for (const auto &m : meters) {
            const core::ProbeStats &ps = m->stats();
            fnvMixMean(h, ps.read_in_hits);
            fnvMixMean(h, ps.read_in_misses);
            fnvMixMean(h, ps.write_backs);
            fnvMix(h, ps.alias_hits);
            fnvMix(h, ps.alias_wrong_way);
            fnvMix(h, ps.memo_hits);
            fnvMix(h, ps.events.tag_reads);
            fnvMix(h, ps.events.field_reads);
            fnvMix(h, ps.events.tag_compares);
            fnvMix(h, ps.events.list_reads);
            fnvMix(h, ps.events.memo_reads);
            fnvMix(h, ps.events.memo_writes);
        }
        out.digest = h;
    } catch (const PanicError &e) {
        out.log.add(std::string("panic during setup: ") + e.what());
    } catch (const FatalError &e) {
        out.log.add(std::string("fatal during setup: ") + e.what());
    }
    return out;
}

std::vector<trace::MemRef>
minimizeTrace(const FuzzCase &c, BugInjection inject)
{
    auto fails = [&c, inject](const std::vector<trace::MemRef> &t) {
        return !runCase(c, inject, &t).log.ok();
    };

    std::vector<trace::MemRef> cur = c.refs;
    if (!fails(cur))
        return cur; // setup-level failure; the trace is irrelevant

    // Delta debugging (ddmin): repeatedly try dropping one of n
    // chunks; refine the granularity when nothing can be dropped.
    std::size_t n = 2;
    int budget = 256; // re-simulations, keeps worst cases bounded
    while (cur.size() >= 2 && budget > 0) {
        const std::size_t chunk =
            std::max<std::size_t>(1, cur.size() / n);
        bool reduced = false;
        for (std::size_t start = 0; start < cur.size() && budget > 0;
             start += chunk) {
            const std::size_t end =
                std::min(cur.size(), start + chunk);
            std::vector<trace::MemRef> cand;
            cand.reserve(cur.size() - (end - start));
            cand.insert(cand.end(), cur.begin(),
                        cur.begin() +
                            static_cast<std::ptrdiff_t>(start));
            cand.insert(cand.end(),
                        cur.begin() + static_cast<std::ptrdiff_t>(end),
                        cur.end());
            --budget;
            if (!cand.empty() && fails(cand)) {
                cur = std::move(cand);
                n = std::max<std::size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (chunk == 1)
                break;
            n = std::min(cur.size(), n * 2);
        }
    }
    return cur;
}

std::string
reproCommand(std::uint64_t seed, std::uint64_t index)
{
    return "fuzz_diff --seed=" + std::to_string(seed) +
           " --config=" + std::to_string(index);
}

std::string
formatRef(const trace::MemRef &r)
{
    if (r.isFlush())
        return "FLUSH";
    char type = 'R';
    if (r.isWrite())
        type = 'W';
    else if (r.isInstruction())
        type = 'I';
    std::ostringstream os;
    os << type << " 0x" << std::hex << r.addr << std::dec
       << " pid=" << static_cast<unsigned>(r.pid);
    return os.str();
}

FuzzSummary
runFuzz(const FuzzOptions &opt)
{
    FuzzSummary out;
    std::uint64_t h = kFnvInit;
    const std::uint64_t begin =
        opt.have_only_case ? opt.only_case : 0;
    const std::uint64_t end =
        opt.have_only_case ? opt.only_case + 1 : opt.iterations;

    for (std::uint64_t i = begin; i < end; ++i) {
        const FuzzCase c = sampleCase(opt.seed, i);
        const CaseResult r = runCase(c, opt.inject);
        ++out.cases_run;
        out.accesses += r.accesses;
        fnvMix(h, r.digest);

        if (opt.log && !opt.have_only_case &&
            (i + 1) % 2000 == 0)
            *opt.log << "fuzz: " << (i + 1) << "/" << opt.iterations
                     << " cases, " << out.accesses
                     << " lookups audited\n";

        if (r.log.ok())
            continue;

        FuzzFailure f;
        f.index = i;
        f.case_seed = c.case_seed;
        f.description = c.describe();
        f.messages = r.log.messages();
        f.minimized = opt.minimize ? minimizeTrace(c, opt.inject)
                                   : c.refs;
        if (opt.log) {
            std::ostream &os = *opt.log;
            os << "FAIL case " << i << ": " << f.description << "\n";
            for (const std::string &m : f.messages)
                os << "  violation: " << m << "\n";
            if (r.log.count() >
                static_cast<std::uint64_t>(f.messages.size()))
                os << "  ... " << r.log.count() << " violations total\n";
            os << "  minimized trace (" << f.minimized.size()
               << " refs):\n";
            for (const trace::MemRef &ref : f.minimized)
                os << "    " << formatRef(ref) << "\n";
            os << "  repro: " << reproCommand(opt.seed, i) << "\n";
        }
        out.failures.push_back(std::move(f));
        if (out.failures.size() >= opt.max_failures)
            break;
    }
    out.digest = h;
    return out;
}

} // namespace check
} // namespace assoc
