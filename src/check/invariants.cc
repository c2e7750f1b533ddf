#include "check/invariants.h"

#include <algorithm>

#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/tagbits.h"
#include "core/way_memo.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace check {

void
ViolationLog::add(const std::string &message)
{
    ++count_;
    if (messages_.size() < max_messages_)
        messages_.push_back(message);
}

void
ViolationLog::clear()
{
    count_ = 0;
    messages_.clear();
}

ProbeBounds
probeBoundsFor(const core::LookupStrategy &strategy, unsigned a)
{
    // Probes a scan of b tags per probe spends on all a ways.
    auto groups = [a](unsigned b) { return b >= a ? 1 : (a + b - 1) / b; };
    ProbeBounds b;
    if (auto *n = dynamic_cast<const core::NaiveLookup *>(&strategy)) {
        // Hit after 1..ceil(a/b) groups in way order; a miss reads
        // them all (one probe for the traditional b = a).
        unsigned g = groups(n->width() == 0 ? a : n->width());
        b = {1, g, g, g};
    } else if (auto *m =
                   dynamic_cast<const core::MruLookup *>(&strategy)) {
        // One probe reads the recency list (none when the blocks
        // are swapped into recency order), then 1..ceil(a/b) groups
        // of tags; a miss costs the list read plus all of them.
        unsigned list = m->readsList() ? 1 : 0;
        unsigned g = groups(m->width());
        b = {list + 1, list + g, list + g, list + g};
    } else if (auto *p = dynamic_cast<const core::PartialLookup *>(
                   &strategy)) {
        // s step-1 probes at most, plus one full compare per
        // partial match; a hit needs at least one of each.
        unsigned s = p->config().subsets;
        b = {2, s + a, s, s + a};
    } else if (auto *wm = dynamic_cast<const core::WayMemoLookup *>(
                   &strategy)) {
        // A memo miss costs exactly what the underlying scheme
        // costs; a memo hit skips every probe.
        b = probeBoundsFor(wm->underlying(), a);
        b.hit_min = 0;
    } else if (dynamic_cast<const core::WayPredictLookup *>(
                   &strategy)) {
        // One probe on a correct prediction; otherwise one more
        // wide probe covers the remaining ways — so 2 on any
        // misprediction or miss (1 when there is only one way).
        unsigned second = a > 1 ? 2 : 1;
        b = {1, second, second, second};
    } else {
        // Universal envelope: a list read, a step-1 probe per way
        // and a full compare per way can never be exceeded.
        b = {1, 1 + 2 * a, 1, 1 + 2 * a};
    }
    return b;
}

namespace {

/** Bit @p w of the set's validity word. */
bool
validWay(const core::LookupInput &in, unsigned w)
{
    return ((in.valid >> w) & 1) != 0;
}

/** Scan @p order (@p n ways) @p b tags per probe, after
 *  @p first_probes probes that read no tag. */
core::LookupResult
refScan(const core::LookupInput &in, const unsigned *order, unsigned n,
        unsigned b, unsigned first_probes)
{
    core::LookupResult res;
    res.probes = first_probes;
    for (unsigned base = 0; base < n; base += b) {
        ++res.probes; // one probe reads this group of b tags
        for (unsigned i = base; i < n && i < base + b; ++i) {
            unsigned w = order[i];
            if (validWay(in, w) && in.stored_tags[w] == in.incoming_tag) {
                res.hit = true;
                res.way = static_cast<int>(w);
                return res;
            }
        }
    }
    return res;
}

core::LookupResult
refWayOrder(const core::LookupInput &in, unsigned width)
{
    std::vector<unsigned> order(in.assoc);
    for (unsigned w = 0; w < in.assoc; ++w)
        order[w] = w;
    return refScan(in, order.data(), in.assoc,
                   width == 0 ? in.assoc : width, 0);
}

core::LookupResult
refRecency(const core::LookupInput &in, const core::MruLookup &m)
{
    // The list's ways, most recent first, then every way it does not
    // name in ascending way order.
    unsigned ll = m.listLen() == 0 ? in.assoc
                                   : std::min(m.listLen(), in.assoc);
    std::vector<unsigned> order(in.mru_order, in.mru_order + ll);
    for (unsigned w = 0; w < in.assoc; ++w)
        if (std::find(order.begin(), order.begin() + ll, w) ==
            order.begin() + ll)
            order.push_back(w);
    return refScan(in, order.data(),
                   static_cast<unsigned>(order.size()), m.width(),
                   m.readsList() ? 1 : 0);
}

core::LookupResult
refPartial(const core::PartialConfig &cfg,
           const core::LookupInput &in)
{
    // Re-derive the two-step scan from the paper with an
    // independently constructed transform instance.
    auto xf = core::TagTransform::make(cfg.transform, cfg.tag_bits,
                                       cfg.field_bits);
    const unsigned s = cfg.subsets;
    const unsigned g = in.assoc / s;
    core::LookupResult res;
    for (unsigned sub = 0; sub < s; ++sub) {
        ++res.probes; // step 1
        for (unsigned l = 0; l < g; ++l) {
            unsigned w = sub * g + l;
            if (!validWay(in, w))
                continue;
            std::uint32_t stored = xf->apply(in.stored_tags[w], l);
            std::uint32_t incoming = xf->apply(in.incoming_tag, l);
            if (xf->field(stored, l) != xf->field(incoming, l))
                continue;
            ++res.probes; // step 2
            if (stored == incoming) {
                res.hit = true;
                res.way = static_cast<int>(w);
                return res;
            }
        }
    }
    return res;
}

core::LookupResult
refWayPredict(const core::LookupInput &in)
{
    core::LookupResult res;
    res.probes = 1; // the predicted way
    const unsigned pred = in.mru_order[0];
    if (validWay(in, pred) &&
        in.stored_tags[pred] == in.incoming_tag) {
        res.hit = true;
        res.way = static_cast<int>(pred);
        return res;
    }
    if (in.assoc == 1)
        return res;
    ++res.probes; // the wide probe over the remaining ways
    for (unsigned w = 0; w < in.assoc; ++w) {
        if (w == pred)
            continue;
        if (validWay(in, w) && in.stored_tags[w] == in.incoming_tag) {
            res.hit = true;
            res.way = static_cast<int>(w);
            return res;
        }
    }
    return res;
}

} // namespace

bool
referenceLookup(const core::LookupStrategy &strategy,
                const core::LookupInput &in, core::LookupResult &out)
{
    if (auto *n = dynamic_cast<const core::NaiveLookup *>(&strategy)) {
        out = refWayOrder(in, n->width());
        return true;
    }
    if (auto *m = dynamic_cast<const core::MruLookup *>(&strategy)) {
        out = refRecency(in, *m);
        return true;
    }
    if (auto *p =
            dynamic_cast<const core::PartialLookup *>(&strategy)) {
        out = refPartial(p->config(), in);
        return true;
    }
    if (dynamic_cast<const core::WayPredictLookup *>(&strategy)) {
        out = refWayPredict(in);
        return true;
    }
    // WayMemoLookup is stateful (the memo table) so no stateless
    // re-execution exists; the auditor's memo-consistency check
    // validates it against the underlying scheme's reference.
    return false;
}

std::uint64_t
partialCandidateMask(const core::PartialConfig &cfg,
                     const core::LookupInput &in)
{
    auto xf = core::TagTransform::make(cfg.transform, cfg.tag_bits,
                                       cfg.field_bits);
    const unsigned s = cfg.subsets;
    const unsigned g = in.assoc / s;
    std::uint64_t mask = 0;
    for (unsigned sub = 0; sub < s; ++sub) {
        for (unsigned l = 0; l < g; ++l) {
            unsigned w = sub * g + l;
            if (!validWay(in, w))
                continue;
            std::uint32_t stored = xf->apply(in.stored_tags[w], l);
            std::uint32_t incoming = xf->apply(in.incoming_tag, l);
            if (xf->field(stored, l) == xf->field(incoming, l))
                mask |= std::uint64_t{1} << w;
        }
    }
    return mask;
}

namespace {

/** Shared soundness scan for one way order of one set. */
bool
checkOneOrder(const mem::WriteBackCache &cache, std::uint32_t set,
              const std::vector<std::uint8_t> &order,
              const char *label, ViolationLog &log)
{
    const unsigned a = cache.geom().assoc();
    std::uint64_t before = log.count();

    if (order.size() != a) {
        log.add("set " + std::to_string(set) + ": " + label +
                " order has " + std::to_string(order.size()) +
                " entries, want " + std::to_string(a));
        return false;
    }
    std::uint64_t seen = 0;
    bool tail = false; // inside the invalid suffix
    for (unsigned i = 0; i < a; ++i) {
        unsigned w = order[i];
        if (w >= a || (seen & (std::uint64_t{1} << w))) {
            log.add("set " + std::to_string(set) + ": " + label +
                    " order is not a permutation (entry " +
                    std::to_string(i) + " = " + std::to_string(w) +
                    ")");
            return false;
        }
        seen |= std::uint64_t{1} << w;
        bool valid = cache.line(set, static_cast<int>(w)).valid;
        if (!valid)
            tail = true;
        else if (tail)
            log.add("set " + std::to_string(set) + ": valid way " +
                    std::to_string(w) +
                    " sits behind an invalid frame in the " + label +
                    " order");
    }
    return log.count() == before;
}

} // namespace

bool
checkMruOrderIntegrity(const mem::WriteBackCache &cache,
                       std::uint32_t set, ViolationLog &log)
{
    return checkOneOrder(cache, set, cache.mruOrder(set), "recency",
                         log);
}

bool
checkFifoOrderIntegrity(const mem::WriteBackCache &cache,
                        std::uint32_t set, ViolationLog &log)
{
    return checkOneOrder(cache, set, cache.fifoOrder(set), "fill-age",
                         log);
}

bool
checkRecencyOrders(const mem::WriteBackCache &cache, std::uint32_t set,
                   ViolationLog &log)
{
    bool mru = checkMruOrderIntegrity(cache, set, log);
    bool fifo = checkFifoOrderIntegrity(cache, set, log);
    return mru && fifo;
}

bool
checkAllMruOrders(const mem::WriteBackCache &cache, ViolationLog &log)
{
    bool ok = true;
    for (std::uint32_t set = 0; set < cache.geom().sets(); ++set)
        ok = checkMruOrderIntegrity(cache, set, log) && ok;
    return ok;
}

bool
checkAllRecencyOrders(const mem::WriteBackCache &cache,
                      ViolationLog &log)
{
    bool ok = true;
    for (std::uint32_t set = 0; set < cache.geom().sets(); ++set)
        ok = checkRecencyOrders(cache, set, log) && ok;
    return ok;
}

bool
checkTransformInvertible(const core::TagTransform &xf, Pcg32 &rng,
                         unsigned samples, ViolationLog &log)
{
    std::uint64_t before = log.count();
    const std::uint32_t mask =
        static_cast<std::uint32_t>(maskBits(xf.tagBits()));
    const std::string what = xf.name() + "(t=" +
                             std::to_string(xf.tagBits()) +
                             ",k=" + std::to_string(xf.fieldBits()) +
                             ")";
    unsigned slots = std::max(1u, xf.fields());
    for (unsigned slot = 0; slot < slots; ++slot) {
        if (xf.apply(0, slot) != 0)
            log.add(what + ": apply(0) != 0 at slot " +
                    std::to_string(slot));
        for (unsigned i = 0; i < samples; ++i) {
            std::uint32_t x = rng.next() & mask;
            std::uint32_t y = rng.next() & mask;
            std::uint32_t ax = xf.apply(x, slot);
            if ((ax & ~mask) != 0)
                log.add(what + ": apply leaks outside the tag mask");
            if (xf.invert(ax, slot) != x)
                log.add(what + ": invert(apply(x)) != x");
            if (xf.apply(xf.invert(x, slot), slot) != x)
                log.add(what + ": apply(invert(x)) != x");
            if (xf.apply(x ^ y, slot) != (ax ^ xf.apply(y, slot)))
                log.add(what + ": not GF(2)-linear");
            if (log.count() != before)
                return false; // one bad transform floods otherwise
        }
    }
    return log.count() == before;
}

bool
checkInclusion(const mem::TwoLevelHierarchy &hier, ViolationLog &log)
{
    std::uint64_t before = log.count();
    const mem::CacheGeometry &g1 = hier.l1().geom();
    const mem::CacheGeometry &g2 = hier.l2().geom();
    for (std::uint32_t set = 0; set < g1.sets(); ++set) {
        for (std::uint32_t w = 0; w < g1.assoc(); ++w) {
            const mem::Line &l = hier.l1().line(set,
                                                static_cast<int>(w));
            if (!l.valid)
                continue;
            trace::Addr byte = g1.byteAddrOf(l.block);
            if (hier.l2().findWay(g2.blockAddrOf(byte)) < 0)
                log.add("inclusion violated: level-one block 0x" +
                        std::to_string(l.block) +
                        " (set " + std::to_string(set) + ", way " +
                        std::to_string(w) +
                        ") is absent from the level two");
        }
    }
    return log.count() == before;
}

InvariantAuditor::InvariantAuditor(ViolationLog *log) : log_(log)
{
    panicIf(log == nullptr, "InvariantAuditor: null log");
}

void
InvariantAuditor::audit(const core::ProbeMeter &meter,
                        const mem::L2AccessView &view,
                        const core::LookupInput &in,
                        const core::LookupResult &res)
{
    ++audited_;
    const unsigned a = in.assoc;
    const core::LookupStrategy &strat = meter.strategy();
    const std::string who = strat.name();

    // 1. Probe bounds from the Section 2 cost model.
    ProbeBounds b = probeBoundsFor(strat, a);
    unsigned lo = res.hit ? b.hit_min : b.miss_min;
    unsigned hi = res.hit ? b.hit_max : b.miss_max;
    if (res.probes < lo || res.probes > hi)
        log_->add(who + ": " + (res.hit ? "hit" : "miss") +
                  " cost " + std::to_string(res.probes) +
                  " probes, outside [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "] at a=" + std::to_string(a));

    // 2. Exact reference re-execution for recognized schemes.
    core::LookupResult ref;
    if (referenceLookup(strat, in, ref)) {
        if (ref.hit != res.hit || ref.way != res.way ||
            ref.probes != res.probes)
            log_->add(who + ": diverges from the reference scan "
                      "(got hit=" + std::to_string(res.hit) +
                      " way=" + std::to_string(res.way) + " probes=" +
                      std::to_string(res.probes) + ", want hit=" +
                      std::to_string(ref.hit) + " way=" +
                      std::to_string(ref.way) + " probes=" +
                      std::to_string(ref.probes) + ")");
    }

    // 3. Ground-truth agreement. With tags at least as wide as the
    // address arithmetic produces, slicing is the identity and the
    // verdict must match the simulator exactly; truncated tags may
    // alias, but only in ways sliced-tag equality justifies.
    const bool true_hit = view.hit_way >= 0;
    const bool strict = meter.config().tag_bits >=
                        view.cache->geom().fullTagBits();
    if (true_hit && !res.hit) {
        log_->add(who + ": missed a block the simulator holds (way " +
                  std::to_string(view.hit_way) + ")");
    } else if (strict) {
        if (res.hit != true_hit)
            log_->add(who + ": full-width verdict disagrees with the "
                      "oracle (scheme says hit=" +
                      std::to_string(res.hit) + ")");
        else if (res.hit && res.way != view.hit_way)
            log_->add(who + ": full-width hit way " +
                      std::to_string(res.way) + " != oracle way " +
                      std::to_string(view.hit_way));
    } else if (res.hit) {
        if (res.way < 0 || static_cast<unsigned>(res.way) >= a ||
            !validWay(in, res.way) ||
            in.stored_tags[res.way] != in.incoming_tag)
            log_->add(who + ": truncated-tag hit at way " +
                      std::to_string(res.way) +
                      " is not justified by sliced-tag equality");
    }

    // The oracle itself must be consistent with the cache state.
    if (true_hit) {
        const mem::Line &l =
            view.cache->line(view.set, view.hit_way);
        if (!l.valid || l.block != view.block)
            log_->add("oracle hit way " +
                      std::to_string(view.hit_way) +
                      " does not hold block 0x" +
                      std::to_string(view.block));
    }

    // 4. Partial step-1 superset: every sliced-equal way must
    // survive the partial filter (in particular the hit way).
    if (auto *p = dynamic_cast<const core::PartialLookup *>(&strat)) {
        std::uint64_t cand = partialCandidateMask(p->config(), in);
        for (unsigned w = 0; w < a; ++w) {
            if (validWay(in, w) && in.stored_tags[w] == in.incoming_tag &&
                !(cand & (std::uint64_t{1} << w)))
                log_->add(who + ": step-1 candidates {" +
                          std::to_string(cand) +
                          "} exclude matching way " +
                          std::to_string(w));
        }
    }

    // 5. Memo consistency: memoization may change costs, never
    // outcomes. A memo hit must skip every probe and name exactly
    // the way the underlying scheme's reference scan finds; a memo
    // miss must reproduce the underlying reference verbatim.
    if (auto *wm = dynamic_cast<const core::WayMemoLookup *>(&strat)) {
        core::LookupResult uref;
        const bool have = referenceLookup(wm->underlying(), in, uref);
        if (res.memo_hit) {
            if (res.probes != 0)
                log_->add(who + ": memo hit cost " +
                          std::to_string(res.probes) +
                          " probes (must skip all tag probes)");
            if (!res.hit)
                log_->add(who + ": memo_hit flagged on a miss");
            if (have && (!uref.hit || uref.way != res.way))
                log_->add(who + ": memo hit names way " +
                          std::to_string(res.way) +
                          " but the underlying reference finds " +
                          (uref.hit ? "way " + std::to_string(uref.way)
                                    : std::string("a miss")));
        } else if (have && (res.hit != uref.hit ||
                            res.way != uref.way ||
                            res.probes != uref.probes)) {
            log_->add(who + ": memo miss diverges from the underlying "
                      "reference (got hit=" + std::to_string(res.hit) +
                      " way=" + std::to_string(res.way) + " probes=" +
                      std::to_string(res.probes) + ", want hit=" +
                      std::to_string(uref.hit) + " way=" +
                      std::to_string(uref.way) + " probes=" +
                      std::to_string(uref.probes) + ")");
        }
    }

    // 6. LRU-stack integrity of the accessed set, for both the
    // recency and the fill-age order.
    checkRecencyOrders(*view.cache, view.set, *log_);

    // 7. The shared compare: every scan walks in.eq, so it must be
    // exactly the per-way compare of the sliced tag plane and the
    // validity word, redone here without the kernel.
    std::uint64_t eq = 0;
    for (unsigned w = 0; w < a; ++w)
        if (validWay(in, w) && in.stored_tags[w] == in.incoming_tag)
            eq |= std::uint64_t{1} << w;
    if (in.eq != eq)
        log_->add(who + ": input eq mask " + std::to_string(in.eq) +
                  " != the per-way compare " + std::to_string(eq) +
                  " at a=" + std::to_string(a));

    // 8. The slice: each stored tag is its way's block cut to the
    // meter's width, read through line() rather than the view's
    // block plane, so a wrong shift or mask in sliceInput shows.
    const mem::CacheGeometry &geom = view.cache->geom();
    if (a != geom.assoc()) {
        log_->add(who + ": input has " + std::to_string(a) +
                  " ways, the cache " + std::to_string(geom.assoc()));
        return;
    }
    const unsigned t = meter.config().tag_bits;
    for (unsigned w = 0; w < a; ++w) {
        const std::uint32_t want = core::sliceTag(
            geom.fullTagOf(
                view.cache->line(view.set, static_cast<int>(w)).block),
            t);
        if (in.stored_tags[w] != want) {
            log_->add(who + ": stored tag " +
                      std::to_string(in.stored_tags[w]) + " of way " +
                      std::to_string(w) + " != its block's " +
                      std::to_string(t) + "-bit tag " +
                      std::to_string(want));
            return; // one violation per access, like check 7
        }
    }
}

} // namespace check
} // namespace assoc
