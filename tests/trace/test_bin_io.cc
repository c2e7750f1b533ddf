#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace/bin_io.h"
#include "util/logging.h"

namespace assoc {
namespace trace {
namespace {

class BinIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs every case as its own process, concurrently,
        // and every process shares gtest's random seed: the path
        // must be unique per test.
        const ::testing::TestInfo *t =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "bin_io_test_" +
                t->test_suite_name() + "_" + t->name() + ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(BinIoTest, RoundTripPreservesEverything)
{
    VectorTraceSource src({{0xdeadbeef, RefType::Read, 1},
                           {0x00000000, RefType::Write, 0},
                           {0xffffffff, RefType::Ifetch, 255},
                           MemRef::flush(),
                           {0x1234, RefType::Read, 2}});
    std::uint64_t n = writeBin(src, path_);
    EXPECT_EQ(n, 5u);

    BinTraceSource in(path_);
    EXPECT_EQ(in.count(), 5u);
    MemRef r;
    for (const MemRef &expect : src.refs()) {
        ASSERT_TRUE(in.next(r));
        EXPECT_EQ(r, expect);
    }
    EXPECT_FALSE(in.next(r));
}

TEST_F(BinIoTest, EmptyTraceRoundTrips)
{
    VectorTraceSource src;
    EXPECT_EQ(writeBin(src, path_), 0u);
    BinTraceSource in(path_);
    EXPECT_EQ(in.count(), 0u);
    MemRef r;
    EXPECT_FALSE(in.next(r));
}

TEST_F(BinIoTest, ResetRereadsFromTheTop)
{
    VectorTraceSource src({{0x10, RefType::Read, 1},
                           {0x20, RefType::Write, 2}});
    writeBin(src, path_);
    BinTraceSource in(path_);
    MemRef a, b;
    ASSERT_TRUE(in.next(a));
    ASSERT_TRUE(in.next(b));
    in.reset();
    MemRef c;
    ASSERT_TRUE(in.next(c));
    EXPECT_EQ(a, c);
}

TEST_F(BinIoTest, BadMagicIsAnError)
{
    std::ofstream out(path_, std::ios::binary);
    out << "JUNKJUNKJUNKJUNK";
    out.close();
    BinTraceSource in(path_);
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
    MemRef r;
    EXPECT_FALSE(in.next(r));
}

TEST_F(BinIoTest, TruncatedHeaderIsAnError)
{
    std::ofstream out(path_, std::ios::binary);
    out << "AST";
    out.close();
    BinTraceSource in(path_);
    ASSERT_TRUE(in.failed());
    MemRef r;
    EXPECT_FALSE(in.next(r));
}

class TruncatedBinTest : public BinIoTest
{
  protected:
    void
    truncateLastRecord()
    {
        VectorTraceSource src({{0x10, RefType::Read, 1},
                               {0x20, RefType::Write, 2}});
        writeBin(src, path_);
        // Chop 3 bytes off the last record.
        std::ifstream in(path_, std::ios::binary);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        std::ofstream out(path_,
                          std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() - 3));
        out.close();
    }
};

TEST_F(TruncatedBinTest, DetectedAtOpenUnderFailFast)
{
    truncateLastRecord();
    // The header claims 2 records but the file only holds 1.5:
    // validated against the file size before any record streams.
    BinTraceSource bts(path_);
    ASSERT_TRUE(bts.failed());
    EXPECT_EQ(bts.error().code(), ErrorCode::Data);
    EXPECT_NE(bts.error().text().find("truncated"),
              std::string::npos)
        << bts.error().text();
    MemRef r;
    EXPECT_FALSE(bts.next(r));
}

TEST_F(TruncatedBinTest, ClampedToWholeRecordsUnderSkip)
{
    truncateLastRecord();
    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    BinTraceSource bts(path_, policy);
    EXPECT_FALSE(bts.failed());
    EXPECT_EQ(bts.claimedCount(), 2u);
    EXPECT_EQ(bts.count(), 1u);
    MemRef r;
    ASSERT_TRUE(bts.next(r));
    EXPECT_EQ(r.addr, 0x10u);
    EXPECT_FALSE(bts.next(r));
    EXPECT_EQ(bts.skippedRecords(), 1u);
}

TEST_F(TruncatedBinTest, HeaderErrorSurvivesReset)
{
    truncateLastRecord();
    BinTraceSource bts(path_);
    ASSERT_TRUE(bts.failed());
    bts.reset();
    ASSERT_TRUE(bts.failed()); // the file is still truncated
    MemRef r;
    EXPECT_FALSE(bts.next(r));
}

TEST_F(BinIoTest, StrictModeRejectsTrailingBytes)
{
    VectorTraceSource src({{0x10, RefType::Read, 1}});
    writeBin(src, path_);
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "xx";
    out.close();

    BinTraceSource lax(path_); // fail-fast ignores trailing bytes
    EXPECT_FALSE(lax.failed());

    ErrorPolicy policy;
    policy.mode = ErrorMode::Strict;
    BinTraceSource strict(path_, policy);
    ASSERT_TRUE(strict.failed());
    EXPECT_EQ(strict.error().code(), ErrorCode::Data);
}

TEST_F(BinIoTest, BadTypeByteIsSkippableByPolicy)
{
    VectorTraceSource src({{0x10, RefType::Read, 1},
                           {0x20, RefType::Write, 2},
                           {0x30, RefType::Ifetch, 3}});
    writeBin(src, path_);
    // Corrupt the middle record's type byte (offset 16 + 6 + 4).
    std::fstream f(path_, std::ios::in | std::ios::out |
                              std::ios::binary);
    f.seekp(16 + 6 + 4);
    char bad = 0x7f;
    f.write(&bad, 1);
    f.close();

    BinTraceSource failfast(path_);
    MemRef r;
    ASSERT_TRUE(failfast.next(r));
    EXPECT_FALSE(failfast.next(r)); // stops at the bad record
    ASSERT_TRUE(failfast.failed());
    EXPECT_EQ(failfast.error().code(), ErrorCode::Data);

    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    BinTraceSource skip(path_, policy);
    ASSERT_TRUE(skip.next(r));
    EXPECT_EQ(r.addr, 0x10u);
    ASSERT_TRUE(skip.next(r)); // bad record dropped
    EXPECT_EQ(r.addr, 0x30u);
    EXPECT_FALSE(skip.next(r));
    EXPECT_FALSE(skip.failed());
    EXPECT_EQ(skip.skippedRecords(), 1u);
}

TEST(BinIo, MissingFileIsAnIoError)
{
    BinTraceSource in("/nonexistent/trace.bin");
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Io);
    MemRef r;
    EXPECT_FALSE(in.next(r));
}

} // namespace
} // namespace trace
} // namespace assoc
