#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "check/invariants.h"
#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/way_memo.h"
#include "sim/runner.h"
#include "trace/synthetic.h"
#include "util/rng.h"

namespace assoc {
namespace check {
namespace {

TEST(ViolationLog, CapsMessagesButCountsEverything)
{
    ViolationLog log(3);
    EXPECT_TRUE(log.ok());
    for (int i = 0; i < 10; ++i)
        log.add("violation " + std::to_string(i));
    EXPECT_FALSE(log.ok());
    EXPECT_EQ(log.count(), 10u);
    EXPECT_EQ(log.messages().size(), 3u);
    log.clear();
    EXPECT_TRUE(log.ok());
    EXPECT_EQ(log.count(), 0u);
}

TEST(ProbeBoundsFor, MatchesSectionTwoCostModel)
{
    core::TraditionalLookup trad;
    ProbeBounds b = probeBoundsFor(trad, 8);
    EXPECT_EQ(b.hit_min, 1u);
    EXPECT_EQ(b.hit_max, 1u);
    EXPECT_EQ(b.miss_min, 1u);
    EXPECT_EQ(b.miss_max, 1u);

    core::NaiveLookup naive;
    b = probeBoundsFor(naive, 8);
    EXPECT_EQ(b.hit_min, 1u);
    EXPECT_EQ(b.hit_max, 8u);
    EXPECT_EQ(b.miss_min, 8u); // a miss always scans all a ways
    EXPECT_EQ(b.miss_max, 8u);

    core::MruLookup mru(0);
    b = probeBoundsFor(mru, 8);
    EXPECT_EQ(b.hit_min, 2u); // list read + first probe
    EXPECT_EQ(b.hit_max, 9u);
    EXPECT_EQ(b.miss_min, 9u); // list read + all a ways
    EXPECT_EQ(b.miss_max, 9u);

    core::PartialConfig pcfg;
    pcfg.tag_bits = 16;
    pcfg.field_bits = 4;
    pcfg.subsets = 2;
    core::PartialLookup partial(pcfg);
    b = probeBoundsFor(partial, 8);
    EXPECT_EQ(b.hit_min, 2u);  // first subset's step 1 + one full
    EXPECT_EQ(b.hit_max, 10u); // all step 1s + a full compares
    EXPECT_EQ(b.miss_min, 2u); // s step-1 probes, no false matches
    EXPECT_EQ(b.miss_max, 10u);
}

TEST(ProbeBoundsFor, MemoSchemesFollowTheirDisciplines)
{
    // WayMemo inherits its underlying scheme's bounds with the hit
    // floor dropped to zero (a memo hit skips every probe).
    core::WayMemoConfig cfg;
    core::WayMemoLookup over_naive(
        std::make_unique<core::NaiveLookup>(), cfg);
    ProbeBounds b = probeBoundsFor(over_naive, 8);
    EXPECT_EQ(b.hit_min, 0u);
    EXPECT_EQ(b.hit_max, 8u);
    EXPECT_EQ(b.miss_min, 8u);
    EXPECT_EQ(b.miss_max, 8u);

    core::WayMemoLookup over_mru(std::make_unique<core::MruLookup>(0),
                                 cfg);
    b = probeBoundsFor(over_mru, 8);
    EXPECT_EQ(b.hit_min, 0u);
    EXPECT_EQ(b.hit_max, 9u);
    EXPECT_EQ(b.miss_max, 9u);

    // WayPredict: one probe on a correct prediction, two otherwise
    // (one when there is no second probe left to make).
    core::WayPredictLookup wp;
    b = probeBoundsFor(wp, 8);
    EXPECT_EQ(b.hit_min, 1u);
    EXPECT_EQ(b.hit_max, 2u);
    EXPECT_EQ(b.miss_min, 2u);
    EXPECT_EQ(b.miss_max, 2u);
    b = probeBoundsFor(wp, 1);
    EXPECT_EQ(b.hit_max, 1u);
    EXPECT_EQ(b.miss_max, 1u);
}

/** A random but well-formed set snapshot for reference checks. */
struct SetState
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> order;

    core::LookupInput
    input(std::uint32_t incoming) const
    {
        // The 0/1 flags as the cache keeps them: one word.
        std::uint64_t word = 0;
        for (std::size_t w = 0; w < valid.size(); ++w)
            word |= std::uint64_t{valid[w] != 0} << w;
        return core::LookupInput(static_cast<unsigned>(tags.size()),
                                 tags.data(), word, order.data(),
                                 incoming);
    }

    static SetState
    random(Pcg32 &rng, unsigned a, unsigned tag_bits)
    {
        SetState s;
        s.tags.resize(a);
        s.valid.resize(a);
        s.order.resize(a);
        std::iota(s.order.begin(), s.order.end(), 0);
        // Fisher-Yates on the recency order.
        for (unsigned i = a - 1; i > 0; --i)
            std::swap(s.order[i], s.order[rng.below(i + 1)]);
        const std::uint32_t mask =
            static_cast<std::uint32_t>(maskBits(tag_bits));
        for (unsigned w = 0; w < a; ++w) {
            // Small tag space so hits and duplicates actually occur.
            s.tags[w] = rng.below(16) & mask;
            s.valid[w] = rng.chance(0.8) ? 1 : 0;
        }
        // Invalid frames must sit in a suffix of the recency order
        // (the WriteBackCache invariant the schemes rely on).
        std::stable_partition(s.order.begin(), s.order.end(),
                              [&s](std::uint8_t w) {
                                  return s.valid[w] != 0;
                              });
        return s;
    }
};

TEST(ReferenceLookup, AgreesWithProductionStrategies)
{
    Pcg32 rng(0x5eed1);
    std::vector<std::unique_ptr<core::LookupStrategy>> strategies;
    strategies.push_back(std::make_unique<core::TraditionalLookup>());
    strategies.push_back(std::make_unique<core::NaiveLookup>());
    strategies.push_back(std::make_unique<core::MruLookup>(0));
    strategies.push_back(std::make_unique<core::MruLookup>(2));
    core::PartialConfig pcfg;
    pcfg.tag_bits = 8;
    pcfg.field_bits = 2;
    pcfg.subsets = 2;
    pcfg.transform = core::TransformKind::XorLow;
    strategies.push_back(std::make_unique<core::PartialLookup>(pcfg));
    // WayPredict's outcome is a pure function of the input (the
    // counters are bookkeeping), so the reference can re-execute it.
    strategies.push_back(std::make_unique<core::WayPredictLookup>());

    for (unsigned a : {2u, 4u, 8u}) {
        for (int i = 0; i < 2000; ++i) {
            SetState s = SetState::random(rng, a, 8);
            core::LookupInput in = s.input(rng.below(16));
            for (const auto &strat : strategies) {
                core::LookupResult want = strat->lookup(in);
                core::LookupResult got;
                ASSERT_TRUE(referenceLookup(*strat, in, got));
                ASSERT_EQ(got.hit, want.hit) << strat->name();
                ASSERT_EQ(got.way, want.way) << strat->name();
                ASSERT_EQ(got.probes, want.probes) << strat->name();
            }
        }
    }
}

TEST(ReferenceLookup, RefusesUnknownStrategies)
{
    class Mystery : public core::LookupStrategy
    {
      public:
        core::LookupResult
        lookup(const core::LookupInput &) const override
        {
            return {};
        }
        std::string name() const override { return "Mystery"; }
    };
    Mystery m;
    Pcg32 rng(7);
    SetState s = SetState::random(rng, 4, 8);
    core::LookupInput in = s.input(3);
    core::LookupResult out;
    EXPECT_FALSE(referenceLookup(m, in, out));
}

TEST(ReferenceLookup, RefusesStatefulWayMemo)
{
    // The memo table makes WayMemo's cost depend on history, so no
    // stateless re-execution exists; the auditor's dedicated
    // memo-consistency check covers it instead.
    core::WayMemoLookup wm(std::make_unique<core::TraditionalLookup>(),
                           core::WayMemoConfig());
    Pcg32 rng(7);
    SetState s = SetState::random(rng, 4, 8);
    core::LookupInput in = s.input(3);
    core::LookupResult out;
    EXPECT_FALSE(referenceLookup(wm, in, out));
}

TEST(PartialCandidateMask, ContainsEverySlicedEqualWay)
{
    Pcg32 rng(0x5eed2);
    core::PartialConfig cfg;
    cfg.tag_bits = 8;
    cfg.field_bits = 2;
    cfg.subsets = 2;
    cfg.transform = core::TransformKind::Improved;
    for (int i = 0; i < 4000; ++i) {
        SetState s = SetState::random(rng, 8, 8);
        core::LookupInput in = s.input(rng.below(16));
        std::uint64_t mask = partialCandidateMask(cfg, in);
        for (unsigned w = 0; w < 8; ++w) {
            if (s.valid[w] && in.stored_tags[w] == in.incoming_tag) {
                ASSERT_TRUE(mask & (1ull << w))
                    << "way " << w << " filtered out";
            }
        }
    }
}

TEST(CheckTransformInvertible, PassesForEveryKindAndWidth)
{
    Pcg32 rng(0x5eed3);
    ViolationLog log;
    for (core::TransformKind kind :
         {core::TransformKind::None, core::TransformKind::XorLow,
          core::TransformKind::Improved, core::TransformKind::Swap}) {
        for (unsigned t : {4u, 7u, 12u, 16u, 21u, 32u}) {
            for (unsigned k : {1u, 2u, 4u}) {
                if (k > t)
                    continue;
                auto xf = core::TagTransform::make(kind, t, k);
                EXPECT_TRUE(
                    checkTransformInvertible(*xf, rng, 200, log))
                    << xf->name() << " t=" << t << " k=" << k;
            }
        }
    }
    EXPECT_TRUE(log.ok());
}

TEST(CheckTransformInvertible, CatchesANonBijection)
{
    // A transform that collapses tags: invert(apply(x)) != x.
    class Lossy : public core::TagTransform
    {
      public:
        using TagTransform::TagTransform;
        std::uint32_t
        apply(std::uint32_t tag, unsigned) const override
        {
            return tag & ~1u; // drops the low bit
        }
        std::uint32_t
        invert(std::uint32_t tag, unsigned) const override
        {
            return tag;
        }
        std::string name() const override { return "lossy"; }
    };
    Lossy lossy(8, 2);
    Pcg32 rng(9);
    ViolationLog log;
    EXPECT_FALSE(checkTransformInvertible(lossy, rng, 200, log));
    EXPECT_FALSE(log.ok());
}

TEST(CheckMruOrderIntegrity, PassesOnARunningCache)
{
    mem::WriteBackCache cache(mem::CacheGeometry(1024, 16, 4));
    Pcg32 rng(11);
    for (int i = 0; i < 2000; ++i) {
        mem::BlockAddr b = rng.below(256);
        int way = cache.findWay(b);
        if (way >= 0)
            cache.touch(cache.geom().setOf(b), way);
        else
            cache.fill(b, rng.chance(0.3));
    }
    ViolationLog log;
    EXPECT_TRUE(checkAllMruOrders(cache, log));
    EXPECT_TRUE(log.ok());
}

TEST(CheckRecencyOrders, BothOrdersPassUnderChurn)
{
    // Random fill/touch/invalidate churn across every policy: the
    // MRU and fill-age orders must keep their invalid-frames-last
    // permutation shape throughout (invalidate() demotes the freed
    // frame in BOTH orders, which this checker pins down).
    for (mem::ReplPolicy policy :
         {mem::ReplPolicy::Lru, mem::ReplPolicy::Fifo,
          mem::ReplPolicy::Random, mem::ReplPolicy::TreePlru}) {
        mem::WriteBackCache cache(mem::CacheGeometry(1024, 16, 4),
                                  policy);
        Pcg32 rng(13);
        ViolationLog log;
        for (int i = 0; i < 3000; ++i) {
            mem::BlockAddr b = rng.below(256);
            double roll = rng.uniform();
            int way = cache.findWay(b);
            if (roll < 0.25) {
                cache.invalidate(b);
            } else if (way >= 0) {
                cache.touch(cache.geom().setOf(b), way);
            } else {
                cache.fill(b, rng.chance(0.3));
            }
        }
        EXPECT_TRUE(checkAllRecencyOrders(cache, log))
            << mem::replPolicyName(policy);
        EXPECT_TRUE(log.ok()) << mem::replPolicyName(policy);
    }
}

TEST(CheckFifoOrderIntegrity, ReportsAnInvalidFrameMidList)
{
    // A cache the checker must reject is unreachable through the
    // public API (that is the point of the invariant), so build the
    // shape indirectly: invalidate a *middle* way of a full set and
    // verify the checker would flag the pre-fix behavior by checking
    // the fixed one holds — the freed frame must sit at the tail of
    // the fill-age order, not in place.
    mem::WriteBackCache cache(mem::CacheGeometry(64, 16, 4),
                              mem::ReplPolicy::Fifo);
    for (mem::BlockAddr b = 0; b < 4; ++b)
        cache.fill(b, false);
    // Fill order (youngest first) is now 3,2,1,0; invalidate the
    // mid-aged block 2.
    ASSERT_EQ(static_cast<int>(cache.fifoOrder(0)[0]),
              cache.findWay(3));
    cache.invalidate(2);
    ViolationLog log;
    EXPECT_TRUE(checkFifoOrderIntegrity(cache, 0, log));
    EXPECT_TRUE(log.ok());
    // The freed frame is the next victim (and the fill reuses it
    // without an eviction), exactly what victimWay() promises.
    int freed = cache.fifoOrder(0).back();
    EXPECT_EQ(cache.victimWay(0), freed);
    mem::FillResult fr = cache.fill(100, false);
    EXPECT_EQ(fr.way, freed);
    EXPECT_FALSE(fr.evicted);
}

TEST(CheckInclusion, HoldsWhenEnforced)
{
    mem::HierarchyConfig cfg{mem::CacheGeometry(512, 16, 1),
                             mem::CacheGeometry(2048, 32, 4), true};
    cfg.enforce_inclusion = true;
    mem::TwoLevelHierarchy hier(cfg);
    trace::UniformRandomTrace src(0x1000, 16, 512, 20000, 1, 0.3);
    hier.run(src);
    ViolationLog log;
    EXPECT_TRUE(checkInclusion(hier, log));
    EXPECT_TRUE(log.ok());
}

TEST(InvariantAuditor, CleanRunThroughRunSpecHook)
{
    // End-to-end through sim::runTrace: every scheme audited on a
    // real simulation, zero violations.
    ViolationLog log;
    InvariantAuditor auditor(&log);

    sim::RunSpec spec;
    spec.hier = {mem::CacheGeometry(1024, 16, 1),
                 mem::CacheGeometry(8192, 32, 4), true};
    core::SchemeSpec s;
    s.kind = core::SchemeKind::Traditional;
    spec.schemes.push_back(s);
    s.kind = core::SchemeKind::Naive;
    spec.schemes.push_back(s);
    s.kind = core::SchemeKind::Mru;
    s.mru_list_len = 2;
    spec.schemes.push_back(s);
    spec.schemes.push_back(core::SchemeSpec::paperPartial(4));
    core::SchemeSpec memo;
    memo.kind = core::SchemeKind::WayMemo;
    memo.memo_entries = 16; // tiny: exercise aliasing + staleness
    spec.schemes.push_back(memo);
    memo.memo_underlying = core::SchemeKind::Mru;
    memo.memo_tagged = false;
    spec.schemes.push_back(memo);
    core::SchemeSpec wp;
    wp.kind = core::SchemeKind::WayPredict;
    spec.schemes.push_back(wp);
    spec.auditor = &auditor;

    trace::UniformRandomTrace src(0x4000, 16, 2048, 30000, 2, 0.3);
    sim::runTrace(src, spec);

    EXPECT_GT(auditor.audited(), 0u);
    EXPECT_TRUE(log.ok()) << (log.messages().empty()
                                  ? ""
                                  : log.messages().front());
}

TEST(InvariantAuditor, FlagsAProbeOverReportingStrategy)
{
    // A subtly broken Naive that over-reports its probe count: no
    // ground-truth panic fires (the verdict is right), so only the
    // invariant checks can see it.
    class OverProbe : public core::NaiveLookup
    {
      public:
        core::LookupResult
        lookup(const core::LookupInput &in) const override
        {
            core::LookupResult res = core::NaiveLookup::lookup(in);
            ++res.probes;
            return res;
        }
    };

    mem::HierarchyConfig cfg{mem::CacheGeometry(512, 16, 1),
                             mem::CacheGeometry(2048, 32, 4), true};
    mem::TwoLevelHierarchy hier(cfg);
    ViolationLog log;
    InvariantAuditor auditor(&log);
    core::MeterConfig mcfg;
    mcfg.tag_bits = 16;
    core::ProbeMeter meter(std::make_unique<OverProbe>(), mcfg);
    meter.setAuditor(&auditor);
    hier.addObserver(&meter);

    trace::UniformRandomTrace src(0x2000, 16, 512, 5000, 3, 0.3);
    hier.run(src);

    EXPECT_FALSE(log.ok());
    EXPECT_GT(auditor.audited(), 0u);
}

/** Changes a hand-built copy of an access's input; @p tags is
 *  scratch the copy may point its stored tags at. */
using Corrupt = std::function<void(core::LookupInput &in,
                                   std::vector<std::uint32_t> &tags)>;

/**
 * Audit every read-in of a short run twice with the lookup's true
 * result: once with the input as built (clean), once after
 * @p corrupt changed a copy of it. @return the corrupted audits;
 * @p log holds what the auditor reported.
 */
std::uint64_t
auditCorrupted(ViolationLog &log, const Corrupt &corrupt)
{
    class Twice : public mem::L2Observer
    {
      public:
        Twice(core::ProbeMeter &meter, InvariantAuditor &auditor,
              const Corrupt &corrupt)
            : meter_(meter), auditor_(auditor), corrupt_(corrupt)
        {}

        void
        observe(const mem::L2AccessView &view) override
        {
            if (view.type != mem::L2ReqType::ReadIn)
                return;
            const core::LookupInput in =
                core::sliceInput(view, 16, scratch_);
            const core::LookupResult res = meter_.strategy().lookup(in);
            auditor_.audit(meter_, view, in, res);
            core::LookupInput bad = in;
            corrupt_(bad, tags_);
            auditor_.audit(meter_, view, bad, res);
            ++corrupted;
        }

        std::uint64_t corrupted = 0;

      private:
        core::ProbeMeter &meter_;
        InvariantAuditor &auditor_;
        const Corrupt &corrupt_;
        std::vector<std::uint32_t> scratch_, tags_;
    };

    mem::HierarchyConfig cfg{mem::CacheGeometry(512, 16, 1),
                             mem::CacheGeometry(2048, 32, 4), true};
    mem::TwoLevelHierarchy hier(cfg);
    InvariantAuditor auditor(&log);
    core::MeterConfig mcfg;
    mcfg.tag_bits = 16;
    core::ProbeMeter meter(std::make_unique<core::NaiveLookup>(), mcfg);
    Twice twice(meter, auditor, corrupt);
    hier.addObserver(&twice);

    trace::UniformRandomTrace src(0x2000, 16, 512, 2000, 3, 0.3);
    hier.run(src);
    return twice.corrupted;
}

TEST(InvariantAuditor, FlagsAWrongEqBit)
{
    // Every scan walks the input's eq mask, so the auditor redoes
    // the compare per way: one flipped bit is one violation.
    ViolationLog log;
    const std::uint64_t corrupted = auditCorrupted(
        log, [](core::LookupInput &in, std::vector<std::uint32_t> &) {
            in.eq ^= std::uint64_t{1} << (in.set % in.assoc);
        });

    ASSERT_GT(corrupted, 0u);
    EXPECT_EQ(corrupted, log.count());
    ASSERT_FALSE(log.messages().empty());
    EXPECT_NE(std::string::npos,
              log.messages().front().find("eq mask"))
        << log.messages().front();
}

TEST(InvariantAuditor, FlagsAWrongStoredTag)
{
    // The auditor cuts each way's t-bit tag from the cache's lines
    // itself: one changed stored tag is one violation. The changed
    // way is one the compare does not match before or after, so the
    // eq mask and every scan stay as they were.
    ViolationLog log;
    const std::uint64_t corrupted = auditCorrupted(
        log, [](core::LookupInput &in, std::vector<std::uint32_t> &tags) {
            unsigned w = in.set % in.assoc;
            while ((in.eq >> w) & 1)
                w = (w + 1) % in.assoc;
            tags.assign(in.stored_tags, in.stored_tags + in.assoc);
            tags[w] ^= (tags[w] ^ 1) == in.incoming_tag ? 2 : 1;
            in.stored_tags = tags.data();
        });

    ASSERT_GT(corrupted, 0u);
    EXPECT_EQ(corrupted, log.count());
    ASSERT_FALSE(log.messages().empty());
    EXPECT_NE(std::string::npos,
              log.messages().front().find("stored tag"))
        << log.messages().front();
}

TEST(InvariantAuditor, FlagsAStaleMemoHit)
{
    // A memo table that rotates the way it serves on a memo hit —
    // the stale-entry bug hardware invalidation exists to prevent.
    // Per-access verdicts stay plausible (it is still "a hit"), so
    // only the memo-consistency check can see it.
    class StaleMemo : public core::WayMemoLookup
    {
      public:
        using core::WayMemoLookup::WayMemoLookup;
        core::LookupResult
        lookup(const core::LookupInput &in) const override
        {
            core::LookupResult res =
                core::WayMemoLookup::lookup(in);
            if (res.memo_hit)
                res.way = (res.way + 1) %
                          static_cast<int>(in.assoc);
            return res;
        }
    };

    mem::HierarchyConfig cfg{mem::CacheGeometry(512, 16, 1),
                             mem::CacheGeometry(2048, 32, 4), true};
    mem::TwoLevelHierarchy hier(cfg);
    ViolationLog log;
    InvariantAuditor auditor(&log);
    core::MeterConfig mcfg;
    mcfg.tag_bits = 16;
    core::ProbeMeter meter(
        std::make_unique<StaleMemo>(
            std::make_unique<core::TraditionalLookup>(),
            core::WayMemoConfig()),
        mcfg);
    meter.setAuditor(&auditor);
    hier.addObserver(&meter);

    trace::UniformRandomTrace src(0x2000, 16, 512, 5000, 3, 0.3);
    hier.run(src);

    EXPECT_FALSE(log.ok());
    EXPECT_GT(meter.stats().memo_hits, 0u);
}

} // namespace
} // namespace check
} // namespace assoc
