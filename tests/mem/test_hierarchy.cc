#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <vector>

#include "core/probe_meter.h"
#include "core/tagbits.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "util/logging.h"

namespace assoc {
namespace mem {
namespace {

using trace::MemRef;
using trace::RefType;

HierarchyConfig
smallConfig()
{
    return HierarchyConfig{CacheGeometry(256, 16, 1),
                           CacheGeometry(1024, 32, 4), true};
}

/** Observer that records every level-two access it sees. */
class RecordingObserver : public L2Observer
{
  public:
    struct Record
    {
        L2ReqType type;
        BlockAddr block;
        int hit_way;
        int hint_way;
        unsigned valid_before;
    };

    void
    observe(const L2AccessView &view) override
    {
        records.push_back(Record{view.type, view.block, view.hit_way,
                                 view.hint_way,
                                 view.cache->validCount(view.set)});
    }

    void onFlush() override { ++flushes; }

    std::vector<Record> records;
    int flushes = 0;
};

TEST(TwoLevelHierarchy, FirstTouchMissesBothLevels)
{
    TwoLevelHierarchy h(smallConfig());
    h.access({0x1000, RefType::Read, 0});
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.proc_refs, 1u);
    EXPECT_EQ(s.l1_misses, 1u);
    EXPECT_EQ(s.read_ins, 1u);
    EXPECT_EQ(s.read_in_misses, 1u);
    EXPECT_EQ(s.write_backs, 0u);
}

TEST(TwoLevelHierarchy, RereferenceHitsL1Silently)
{
    TwoLevelHierarchy h(smallConfig());
    h.access({0x1000, RefType::Read, 0});
    h.access({0x1004, RefType::Read, 0}); // same 16B L1 block
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.l1_hits, 1u);
    EXPECT_EQ(s.read_ins, 1u); // no second request to L2
}

TEST(TwoLevelHierarchy, L1ConflictMissHitsL2)
{
    HierarchyConfig cfg = smallConfig();
    TwoLevelHierarchy h(cfg);
    // Two blocks that conflict in the 16-set L1 but live in a
    // 4-way L2 set: L1 block stride = sets*block = 256 bytes.
    h.access({0x0000, RefType::Read, 0});
    h.access({0x4000, RefType::Read, 0}); // conflicts in L1, far in L2
    h.access({0x0000, RefType::Read, 0}); // L1 miss again, L2 hit
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.l1_misses, 3u);
    EXPECT_EQ(s.read_ins, 3u);
    EXPECT_EQ(s.read_in_hits, 1u);
}

TEST(TwoLevelHierarchy, CleanEvictionCausesNoWriteBack)
{
    TwoLevelHierarchy h(smallConfig());
    h.access({0x0000, RefType::Read, 0});
    h.access({0x4000, RefType::Read, 0}); // evicts clean block
    EXPECT_EQ(h.stats().write_backs, 0u);
}

TEST(TwoLevelHierarchy, DirtyEvictionIssuesReadInThenWriteBack)
{
    TwoLevelHierarchy h(smallConfig());
    RecordingObserver obs;
    h.addObserver(&obs);
    h.access({0x0000, RefType::Write, 0}); // dirty in L1
    h.access({0x4000, RefType::Read, 0});  // displaces dirty block
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.write_backs, 1u);
    ASSERT_EQ(obs.records.size(), 3u);
    // Order: read-in(0x0000 miss), read-in(0x4000), write-back(0x0000).
    EXPECT_EQ(obs.records[1].type, L2ReqType::ReadIn);
    EXPECT_EQ(obs.records[2].type, L2ReqType::WriteBack);
    EXPECT_EQ(obs.records[2].block,
              h.config().l2.blockAddrOf(0x0000));
}

TEST(TwoLevelHierarchy, WriteBackHitsL2AndMarksDirty)
{
    TwoLevelHierarchy h(smallConfig());
    h.access({0x0000, RefType::Write, 0});
    h.access({0x4000, RefType::Read, 0}); // write-back of 0x0000
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.write_back_hits, 1u);
    EXPECT_EQ(s.write_back_misses, 0u);
    // The L2 line for 0x0000 must now be dirty.
    BlockAddr b = h.config().l2.blockAddrOf(0x0000);
    int way = h.l2().findWay(b);
    ASSERT_GE(way, 0);
    EXPECT_TRUE(h.l2().line(h.config().l2.setOf(b), way).dirty);
}

TEST(TwoLevelHierarchy, WriteBackHintIsCorrectWhenInclusionHolds)
{
    TwoLevelHierarchy h(smallConfig());
    RecordingObserver obs;
    h.addObserver(&obs);
    h.access({0x0000, RefType::Write, 0});
    h.access({0x4000, RefType::Read, 0});
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.hint_correct, 1u);
    EXPECT_EQ(s.hint_wrong, 0u);
    EXPECT_DOUBLE_EQ(s.hintAccuracy(), 1.0);
    // The observer's write-back view carried a valid hint equal to
    // the true hit way.
    const auto &wb = obs.records.back();
    EXPECT_EQ(wb.type, L2ReqType::WriteBack);
    EXPECT_GE(wb.hint_way, 0);
    EXPECT_EQ(wb.hint_way, wb.hit_way);
}

TEST(TwoLevelHierarchy, ObserverSeesPreAccessState)
{
    TwoLevelHierarchy h(smallConfig());
    RecordingObserver obs;
    h.addObserver(&obs);
    h.access({0x0000, RefType::Read, 0});
    // At observation time the set had no valid lines yet.
    ASSERT_EQ(obs.records.size(), 1u);
    EXPECT_EQ(obs.records[0].valid_before, 0u);
    EXPECT_EQ(obs.records[0].hit_way, -1);
}

TEST(TwoLevelHierarchy, FlushMarkerColdsBothLevelsAndNotifies)
{
    TwoLevelHierarchy h(smallConfig());
    RecordingObserver obs;
    h.addObserver(&obs);
    h.access({0x0000, RefType::Read, 0});
    h.access(MemRef::flush());
    EXPECT_EQ(obs.flushes, 1);
    EXPECT_EQ(h.stats().flushes, 1u);
    // Same reference misses both levels again.
    h.access({0x0000, RefType::Read, 0});
    EXPECT_EQ(h.stats().read_in_misses, 2u);
}

TEST(TwoLevelHierarchy, GlobalAndLocalMissRatios)
{
    TwoLevelHierarchy h(smallConfig());
    h.access({0x0000, RefType::Read, 0}); // miss both
    h.access({0x0000, RefType::Read, 0}); // L1 hit
    h.access({0x4000, RefType::Read, 0}); // miss both
    h.access({0x0000, RefType::Read, 0}); // L1 miss, L2 hit
    const HierarchyStats &s = h.stats();
    EXPECT_DOUBLE_EQ(s.l1MissRatio(), 0.75);
    EXPECT_DOUBLE_EQ(s.globalMissRatio(), 0.5);
    EXPECT_DOUBLE_EQ(s.localMissRatio(), 2.0 / 3.0);
}

TEST(TwoLevelHierarchy, LargerL2BlocksCoalesceReadIns)
{
    // L1 16B blocks, L2 32B blocks: the two halves of one L2 block
    // are distinct L1 blocks but one L2 read-in makes the second a
    // level-two hit.
    TwoLevelHierarchy h(smallConfig());
    h.access({0x0000, RefType::Read, 0});
    h.access({0x0010, RefType::Read, 0});
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.read_ins, 2u);
    EXPECT_EQ(s.read_in_misses, 1u);
    EXPECT_EQ(s.read_in_hits, 1u);
}

TEST(TwoLevelHierarchy, RejectsL1BlockLargerThanL2Block)
{
    HierarchyConfig cfg{CacheGeometry(256, 32, 1),
                        CacheGeometry(1024, 16, 4), true};
    EXPECT_THROW(TwoLevelHierarchy{cfg}, FatalError);
}

TEST(TwoLevelHierarchy, RunStreamsWholeTrace)
{
    trace::AtumLikeConfig tcfg;
    tcfg.segments = 2;
    tcfg.refs_per_segment = 20000;
    tcfg.processes = 2;
    trace::AtumLikeGenerator gen(tcfg);

    TwoLevelHierarchy h(smallConfig());
    h.run(gen);
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.proc_refs, 40000u);
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.l1_hits + s.l1_misses, s.proc_refs);
    EXPECT_EQ(s.read_ins, s.l1_misses);
    EXPECT_EQ(s.read_in_hits + s.read_in_misses, s.read_ins);
    EXPECT_EQ(s.write_back_hits + s.write_back_misses,
              s.write_backs);
    EXPECT_GT(s.write_backs, 0u);
}

/** Delivers its records, then stops on a Data error, as a file
 *  reader does at a malformed record. */
class FailingSource : public trace::TraceSource
{
  public:
    bool
    next(MemRef &ref) override
    {
        if (pos_ == 100) {
            error_ = Error::data("record 100 is malformed");
            return false;
        }
        ref = MemRef{0x40u * pos_++, RefType::Read, 0};
        return true;
    }

    void
    reset() override
    {
        pos_ = 0;
        error_ = Error();
    }

    const Error &error() const override { return error_; }

  private:
    std::uint32_t pos_ = 0;
    Error error_;
};

TEST(TwoLevelHierarchy, RunThrowsTheSourcesError)
{
    FailingSource src;
    TwoLevelHierarchy h(smallConfig());
    try {
        h.run(src);
        ADD_FAILURE() << "a failed stream ended as if clean";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Data);
        EXPECT_NE(e.error().text().find("record 100 is malformed"),
                  std::string::npos)
            << e.error().text();
    }
    // The references before the failure were applied.
    EXPECT_EQ(h.stats().proc_refs, 100u);
}

TEST(TwoLevelHierarchy, InclusionViolationsAreDetected)
{
    // A tiny L2 with a big L1 forces inclusion violations: blocks
    // live in L1 long after the L2 replaced them, so their
    // write-backs miss.
    HierarchyConfig cfg{CacheGeometry(4096, 16, 1),
                        CacheGeometry(512, 16, 2), true};
    TwoLevelHierarchy h(cfg);
    trace::AtumLikeConfig tcfg;
    tcfg.segments = 1;
    tcfg.refs_per_segment = 50000;
    tcfg.processes = 2;
    trace::AtumLikeGenerator gen(tcfg);
    h.run(gen);
    EXPECT_GT(h.stats().write_back_misses, 0u);
    EXPECT_LT(h.stats().hintAccuracy(), 1.0);
}

TEST(TwoLevelHierarchy, WbMissAllocationRespectsConfig)
{
    HierarchyConfig cfg{CacheGeometry(4096, 16, 1),
                        CacheGeometry(512, 16, 2), false};
    TwoLevelHierarchy h(cfg);
    trace::AtumLikeConfig tcfg;
    tcfg.segments = 1;
    tcfg.refs_per_segment = 30000;
    tcfg.processes = 2;
    trace::AtumLikeGenerator gen(tcfg);
    // Just exercises the no-allocate path; invariants still hold.
    h.run(gen);
    const HierarchyStats &s = h.stats();
    EXPECT_EQ(s.write_back_hits + s.write_back_misses,
              s.write_backs);
}

TEST(HierarchyStats, ZeroDivisionGuards)
{
    HierarchyStats s;
    EXPECT_DOUBLE_EQ(s.l1MissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.globalMissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.localMissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.writeBackFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.hintAccuracy(), 0.0);
}

TEST(TwoLevelHierarchy, ReadOnlyStreamNeverWritesBack)
{
    TwoLevelHierarchy h(smallConfig());
    for (trace::Addr a = 0; a < 0x8000; a += 256)
        h.access({a, RefType::Read, 0});
    EXPECT_EQ(h.stats().write_backs, 0u);
    EXPECT_DOUBLE_EQ(h.stats().writeBackFraction(), 0.0);
}

TEST(TwoLevelHierarchy, IfetchesBehaveLikeReads)
{
    TwoLevelHierarchy h1(smallConfig()), h2(smallConfig());
    for (trace::Addr a = 0; a < 0x4000; a += 64) {
        h1.access({a, RefType::Read, 0});
        h2.access({a, RefType::Ifetch, 0});
    }
    EXPECT_EQ(h1.stats().l1_misses, h2.stats().l1_misses);
    EXPECT_EQ(h1.stats().read_in_misses, h2.stats().read_in_misses);
}

TEST(TwoLevelHierarchy, NullObserverPanics)
{
    TwoLevelHierarchy h(smallConfig());
    EXPECT_THROW(h.addObserver(nullptr), PanicError);
}

/** Tag widths the view test slices at: below, at and above the
 *  24-bit full tag of a 1K-32 4-way cache. */
constexpr unsigned kSliceWidths[] = {12, 24, 32};

/** Copies a view, its planes and core::sliceInput's tags at each
 *  of kSliceWidths while they are alive. */
class PlaneObserver : public L2Observer
{
  public:
    void
    observe(const L2AccessView &view) override
    {
        const unsigned a = view.cache->geom().assoc();
        last = view;
        blocks.assign(view.blocks, view.blocks + a);
        order.assign(view.mru_order, view.mru_order + a);
        for (unsigned i = 0; i < std::size(kSliceWidths); ++i) {
            const core::LookupInput in =
                core::sliceInput(view, kSliceWidths[i], scratch_);
            sliced[i].assign(in.stored_tags, in.stored_tags + a);
        }
        ++seen;
    }

    L2AccessView last{};
    std::vector<BlockAddr> blocks;
    std::vector<std::uint8_t> order;
    std::vector<std::uint32_t> sliced[std::size(kSliceWidths)];
    int seen = 0;

  private:
    std::vector<std::uint32_t> scratch_;
};

TEST(ObserverFanout, ViewIsTheCachesPreAccessSet)
{
    WriteBackCache cache(CacheGeometry(1024, 32, 4));
    const CacheGeometry &geom = cache.geom();
    ASSERT_EQ(geom.fullTagBits(), 24u);
    // Set 1 holds four blocks whose tags use all 24 bits; one is
    // then invalidated (its frame keeps the block) and another is
    // touched, so the recency order differs from the fill order.
    for (std::uint32_t tag : {0xabcdefu, 0x123456u, 0xfedcbau, 0x0f0f0fu})
        cache.fill(geom.blockAddrFrom(tag, 1), false);
    cache.invalidate(geom.blockAddrFrom(0x123456u, 1));
    cache.touch(1, cache.findWay(geom.blockAddrFrom(0xfedcbau, 1)));

    ObserverFanout fanout;
    PlaneObserver obs;
    fanout.add(&obs);
    const BlockAddr block = geom.blockAddrFrom(0x0f0f0fu, 1);
    const int way = cache.findWay(block);
    const std::vector<std::uint8_t> pre_order = cache.mruOrder(1);
    fanout.notify(cache, L2ReqType::WriteBack, block, way, 2);
    // The access commits: its way becomes the set's most recent.
    cache.touch(1, way);
    ASSERT_NE(cache.mruOrder(1), pre_order);

    ASSERT_EQ(obs.seen, 1);
    EXPECT_EQ(obs.last.type, L2ReqType::WriteBack);
    EXPECT_EQ(obs.last.set, 1u);
    EXPECT_EQ(obs.last.block, block);
    EXPECT_EQ(obs.last.full_tag, geom.fullTagOf(block));
    EXPECT_EQ(obs.last.cache, &cache);
    EXPECT_EQ(obs.last.hit_way, way);
    EXPECT_EQ(obs.last.hint_way, 2);
    // Validity is the cache's own word: three valid ways.
    EXPECT_EQ(obs.last.valid, cache.validMask(1));
    EXPECT_EQ(std::popcount(obs.last.valid), 3);
    // The recency order is the cache's own plane, read in place,
    // and observe() saw it before the access committed.
    EXPECT_EQ(obs.last.mru_order, cache.setOrder(1));
    EXPECT_EQ(obs.order, pre_order);
    // The block plane is the cache's, invalid way included, and
    // every width's stored tag is cut from each way's block.
    for (unsigned w = 0; w < 4; ++w) {
        const BlockAddr b = cache.line(1, static_cast<int>(w)).block;
        EXPECT_EQ(obs.blocks[w], b) << "way " << w;
        for (unsigned i = 0; i < std::size(kSliceWidths); ++i)
            EXPECT_EQ(obs.sliced[i][w],
                      core::sliceTag(geom.fullTagOf(b), kSliceWidths[i]))
                << "way " << w << " t=" << kSliceWidths[i];
    }
    EXPECT_EQ(obs.sliced[0][cache.findWay(block)], 0xf0fu);
}

TEST(ObserverFanout, ForwardsFlushes)
{
    ObserverFanout fanout;
    RecordingObserver a, b;
    fanout.add(&a);
    fanout.add(&b);
    fanout.onFlush();
    EXPECT_EQ(a.flushes, 1);
    EXPECT_EQ(b.flushes, 1);
    EXPECT_THROW(fanout.add(nullptr), PanicError);
}

} // namespace
} // namespace mem
} // namespace assoc
