#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "trace/trace_source.h"

namespace assoc {
namespace trace {
namespace {

TEST(MemRef, FlushMarker)
{
    MemRef f = MemRef::flush();
    EXPECT_TRUE(f.isFlush());
    EXPECT_FALSE(f.isWrite());
    EXPECT_FALSE(f.isInstruction());
}

TEST(MemRef, TypePredicates)
{
    MemRef r{0x100, RefType::Write, 3};
    EXPECT_TRUE(r.isWrite());
    EXPECT_FALSE(r.isFlush());
    MemRef i{0x200, RefType::Ifetch, 1};
    EXPECT_TRUE(i.isInstruction());
}

TEST(MemRef, TypeNames)
{
    EXPECT_STREQ(refTypeName(RefType::Read), "read");
    EXPECT_STREQ(refTypeName(RefType::Write), "write");
    EXPECT_STREQ(refTypeName(RefType::Ifetch), "ifetch");
    EXPECT_STREQ(refTypeName(RefType::Flush), "flush");
}

TEST(VectorTraceSource, EmptySourceEndsImmediately)
{
    VectorTraceSource src;
    MemRef r;
    EXPECT_FALSE(src.next(r));
}

TEST(VectorTraceSource, StreamsInOrder)
{
    VectorTraceSource src({{0x10, RefType::Read, 1},
                           {0x20, RefType::Write, 2}});
    MemRef r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x10u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x20u);
    EXPECT_FALSE(src.next(r));
}

TEST(VectorTraceSource, ResetReplaysIdentically)
{
    VectorTraceSource src({{0x1, RefType::Read, 0},
                           {0x2, RefType::Ifetch, 0}});
    MemRef a, b;
    ASSERT_TRUE(src.next(a));
    src.reset();
    ASSERT_TRUE(src.next(b));
    EXPECT_EQ(a, b);
}

TEST(VectorTraceSource, CursorsShareOneBufferWithOwnPositions)
{
    VectorTraceSource::Buffer buf =
        std::make_shared<const std::vector<MemRef>>(
            std::vector<MemRef>{{0x1, RefType::Read, 0},
                                {0x2, RefType::Write, 0},
                                {0x3, RefType::Ifetch, 0}});
    VectorTraceSource a(buf), b(buf);
    EXPECT_EQ(a.refs().data(), buf->data()) << "a cursor copied";
    EXPECT_EQ(b.refs().data(), buf->data()) << "a cursor copied";

    MemRef r[3];
    EXPECT_EQ(a.nextBatch(r, 2), 2u);
    EXPECT_EQ(r[1].addr, 0x2u);
    ASSERT_TRUE(b.next(r[0]));
    EXPECT_EQ(r[0].addr, 0x1u) << "cursors share a position";
    EXPECT_EQ(a.nextBatch(r, 3), 1u);
    EXPECT_EQ(r[0].addr, 0x3u);
    EXPECT_EQ(a.nextBatch(r, 3), 0u);
    EXPECT_EQ(a.size(), 3u);
}

/** Streams two records, then stops on an Io error. */
class FailingSource : public TraceSource
{
  public:
    bool
    next(MemRef &ref) override
    {
        if (pos_ == 2) {
            err_ = Error::io("device went away");
            return false;
        }
        ref = MemRef{++pos_, RefType::Read, 0};
        return true;
    }

    void reset() override { pos_ = 0; }

    const Error &error() const override { return err_; }

  private:
    Addr pos_ = 0;
    Error err_;
};

TEST(Materialize, DrainsTheWholeStreamIntoAnExactReservation)
{
    VectorTraceSource src({{0x1, RefType::Read, 0},
                           {0x2, RefType::Write, 0},
                           MemRef::flush(),
                           {0x3, RefType::Ifetch, 0}});
    MemRef r;
    ASSERT_TRUE(src.next(r)); // materialize starts from the top
    std::vector<MemRef> got = materialize(src, src.size());
    EXPECT_EQ(got, src.refs());
    EXPECT_EQ(got.capacity(), src.size());
}

TEST(Materialize, ThrowsTheSourcesError)
{
    FailingSource src;
    try {
        materialize(src);
        FAIL() << "a failed source materialized as a clean trace";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Io);
    }
}

TEST(LimitedTraceSource, TruncatesStream)
{
    VectorTraceSource inner({{1, RefType::Read, 0},
                             {2, RefType::Read, 0},
                             {3, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 2);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
}

TEST(LimitedTraceSource, ResetResetsBothLayers)
{
    VectorTraceSource inner({{1, RefType::Read, 0},
                             {2, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 1);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
    lim.reset();
    ASSERT_TRUE(lim.next(r));
    EXPECT_EQ(r.addr, 1u);
}

TEST(LimitedTraceSource, LimitBeyondLengthIsHarmless)
{
    VectorTraceSource inner({{1, RefType::Read, 0}});
    LimitedTraceSource lim(inner, 100);
    MemRef r;
    EXPECT_TRUE(lim.next(r));
    EXPECT_FALSE(lim.next(r));
}

} // namespace
} // namespace trace
} // namespace assoc
