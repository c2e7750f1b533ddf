#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"
#include "trace/trace_source.h"
#include "util/cancel.h"

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
    VectorTraceSource::Buffer buf = std::make_shared<const RefArray>(
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
    EXPECT_EQ(got, std::vector<MemRef>(src.refs().begin(),
                                       src.refs().end()));
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

// -----------------------------------------------------------------
// The wrapper contract over a real file-backed source
// (docs/TRACES.md, "Wrapper sources forward the whole contract"): a
// wrapped ftr reader's structured error, its record-exact skip
// accounting, and a cancel token attached to the wrapper all reach
// the caller unchanged.
// -----------------------------------------------------------------

/** The thinnest wrapper: it passes every record and implements only
 *  next() and reset(), so everything else it reports is
 *  ForwardingTraceSource's forwarding. */
class PassThroughSource : public ForwardingTraceSource
{
  public:
    explicit PassThroughSource(TraceSource &inner)
        : ForwardingTraceSource(inner)
    {}

    bool next(MemRef &ref) override { return inner_.next(ref); }
    void reset() override { inner_.reset(); }
};

class ForwardingFtrTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "forwarding_ftr_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".ftr";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write @p n sequential records in frames of @p frame_records. */
    void
    writeTrace(std::size_t n, std::uint32_t frame_records)
    {
        std::vector<MemRef> refs;
        for (std::size_t i = 0; i < n; ++i)
            refs.push_back({static_cast<Addr>(i * 32), RefType::Read, 0});
        VectorTraceSource src(std::move(refs));
        FtrWriter::Options opt;
        opt.frame_records = frame_records;
        Expected<std::uint64_t> w = writeFtr(src, path_, opt);
        ASSERT_TRUE(w.ok()) << w.error().text();
    }

    /** Flip one byte in the middle of the frame data. */
    void
    corruptMidFile()
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(0, std::ios::end);
        std::streampos at = f.tellg() / 2;
        f.seekg(at);
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0xff);
        f.seekp(at);
        f.write(&b, 1);
    }

    /** Drain @p src; returns the records it delivered. */
    static std::uint64_t
    drain(TraceSource &src)
    {
        MemRef r;
        std::uint64_t n = 0;
        while (src.next(r))
            ++n;
        return n;
    }

    std::string path_;
};

TEST_F(ForwardingFtrTest, InnerDataErrorSurfacesThroughTheWrapper)
{
    // A FailFast reader over a corrupt file stops with a Data error;
    // the wrapper must report it, so throwIfFailed throws the inner
    // structured error instead of taking the stop for a clean end of
    // trace.
    writeTrace(4096, 256);
    corruptMidFile();
    FtrTraceSource inner(path_, ErrorPolicy()); // FailFast
    PassThroughSource wrapped(inner);
    drain(wrapped);
    ASSERT_TRUE(wrapped.failed());
    EXPECT_EQ(wrapped.error().code(), ErrorCode::Data);
    EXPECT_EQ(wrapped.error().message(), inner.error().message());
    try {
        throwIfFailed(wrapped);
        FAIL() << "a failed wrapper passed throwIfFailed";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Data);
        EXPECT_EQ(e.error().message(), inner.error().message());
    }
}

TEST_F(ForwardingFtrTest, SkipLossPassesThroughRecordExact)
{
    // Skip mode loses exactly the one damaged 256-record frame, and
    // the wrapper reports the reader's record-exact count.
    writeTrace(4096, 256);
    corruptMidFile();
    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    FtrTraceSource inner(path_, policy);
    PassThroughSource wrapped(inner);
    std::uint64_t delivered = drain(wrapped);
    EXPECT_FALSE(wrapped.failed());
    EXPECT_EQ(wrapped.skippedRecords(), 256u);
    EXPECT_EQ(wrapped.skippedRecords(), inner.skippedRecords());
    EXPECT_EQ(delivered, 4096u - 256u);
}

TEST_F(ForwardingFtrTest, CancelTokenOnTheWrapperStopsTheReader)
{
    // setCancelToken on the wrapper must reach the reader that polls
    // it: a cancelled run stops mid-stream with the reader's
    // structured Cancelled error.
    writeTrace(8192, 64);
    FtrTraceSource inner(path_);
    PassThroughSource wrapped(inner);
    CancelToken token;
    wrapped.setCancelToken(&token);
    token.cancel();
    std::uint64_t delivered = drain(wrapped);
    ASSERT_TRUE(wrapped.failed());
    EXPECT_EQ(wrapped.error().code(), ErrorCode::Cancelled);
    EXPECT_LT(delivered, 8192u);
}

} // namespace
} // namespace trace
} // namespace assoc
