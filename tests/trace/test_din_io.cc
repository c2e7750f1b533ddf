#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/din_io.h"
#include "util/logging.h"

namespace assoc {
namespace trace {
namespace {

class DinIoTest : public ::testing::Test
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
        path_ = ::testing::TempDir() + "din_io_test_" +
                t->test_suite_name() + "_" + t->name() + ".din";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(DinIoTest, RoundTripPreservesEverything)
{
    VectorTraceSource src({{0xdeadbeef, RefType::Read, 1},
                           {0x00000000, RefType::Write, 0},
                           {0xffffffff, RefType::Ifetch, 7},
                           MemRef::flush(),
                           {0x1234, RefType::Read, 2}});
    writeDin(src, path_);

    DinTraceSource in(path_);
    MemRef r;
    for (const MemRef &expect : src.refs()) {
        ASSERT_TRUE(in.next(r));
        EXPECT_EQ(r, expect);
    }
    EXPECT_FALSE(in.next(r));
}

TEST_F(DinIoTest, ResetRereadsFromTheTop)
{
    VectorTraceSource src({{0x10, RefType::Read, 1},
                           {0x20, RefType::Write, 2}});
    writeDin(src, path_);
    DinTraceSource in(path_);
    MemRef a, b;
    ASSERT_TRUE(in.next(a));
    in.reset();
    ASSERT_TRUE(in.next(b));
    EXPECT_EQ(a, b);
}

TEST_F(DinIoTest, CommentsAndBlankLinesSkipped)
{
    std::ofstream out(path_);
    out << "# comment\n\n0 100\n# another\n1 200 3\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    ASSERT_TRUE(in.next(r));
    EXPECT_EQ(r.addr, 0x100u);
    EXPECT_EQ(r.type, RefType::Read);
    EXPECT_EQ(r.pid, 0);
    ASSERT_TRUE(in.next(r));
    EXPECT_EQ(r.addr, 0x200u);
    EXPECT_EQ(r.type, RefType::Write);
    EXPECT_EQ(r.pid, 3);
    EXPECT_FALSE(in.next(r));
}

TEST_F(DinIoTest, PidColumnIsOptional)
{
    std::ofstream out(path_);
    out << "2 abc\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    ASSERT_TRUE(in.next(r));
    EXPECT_EQ(r.addr, 0xabcu);
    EXPECT_EQ(r.type, RefType::Ifetch);
    EXPECT_EQ(r.pid, 0);
}

TEST_F(DinIoTest, UnknownLabelStopsTheStreamWithAnError)
{
    std::ofstream out(path_);
    out << "0 100 1\n9 200\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    ASSERT_TRUE(in.next(r)); // the good line before the bad one
    EXPECT_FALSE(in.next(r));
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
    // The report carries file:line and the offending text.
    EXPECT_NE(in.error().text().find(":2:"), std::string::npos)
        << in.error().text();
    EXPECT_NE(in.error().text().find("9 200"), std::string::npos)
        << in.error().text();
}

TEST_F(DinIoTest, UnknownLabelIsSkippableByPolicy)
{
    std::ofstream out(path_);
    out << "0 100 1\n9 200\n1 300 2\n";
    out.close();
    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    DinTraceSource in(path_, policy);
    MemRef r;
    ASSERT_TRUE(in.next(r));
    EXPECT_EQ(r.addr, 0x100u);
    ASSERT_TRUE(in.next(r)); // bad line skipped, stream continues
    EXPECT_EQ(r.addr, 0x300u);
    EXPECT_FALSE(in.next(r));
    EXPECT_FALSE(in.failed());
    EXPECT_EQ(in.skippedRecords(), 1u);
}

TEST_F(DinIoTest, MalformedLineStopsTheStreamWithAnError)
{
    std::ofstream out(path_);
    out << "not a trace\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    EXPECT_FALSE(in.next(r));
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
}

TEST_F(DinIoTest, BadAddressStopsTheStreamWithAnError)
{
    std::ofstream out(path_);
    out << "0 zzz\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    EXPECT_FALSE(in.next(r));
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
}

TEST_F(DinIoTest, SkipModeGivesUpPastTheCap)
{
    std::ofstream out(path_);
    for (int i = 0; i < 5; ++i)
        out << "junk line " << i << "\n";
    out << "0 100 1\n";
    out.close();
    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    policy.max_skips = 3;
    DinTraceSource in(path_, policy);
    MemRef r;
    EXPECT_FALSE(in.next(r));
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
}

TEST_F(DinIoTest, StrictModeRejectsTrailingColumns)
{
    std::ofstream out(path_);
    out << "0 100 1 extra\n";
    out.close();

    DinTraceSource lax(path_); // fail-fast tolerates the old quirk
    MemRef r;
    ASSERT_TRUE(lax.next(r));
    EXPECT_EQ(r.addr, 0x100u);

    ErrorPolicy policy;
    policy.mode = ErrorMode::Strict;
    DinTraceSource strict(path_, policy);
    EXPECT_FALSE(strict.next(r));
    ASSERT_TRUE(strict.failed());
    EXPECT_EQ(strict.error().code(), ErrorCode::Data);
}

TEST_F(DinIoTest, ResetClearsARecoverableError)
{
    std::ofstream out(path_);
    out << "0 100 1\nnot a trace\n";
    out.close();
    DinTraceSource in(path_);
    MemRef r;
    ASSERT_TRUE(in.next(r));
    EXPECT_FALSE(in.next(r));
    ASSERT_TRUE(in.failed());
    in.reset();
    EXPECT_FALSE(in.failed());
    ASSERT_TRUE(in.next(r));
    EXPECT_EQ(r.addr, 0x100u);
}

/** A three-record din file cut after 32 bytes, inside the last
 *  line: "2 e2351c12 1\n" becomes "2 e2". */
class DinCutTest : public DinIoTest
{
  protected:
    void
    writeCut(std::size_t keep)
    {
        const std::string text =
            "# din\n0 e2351c12 1\n1 1000 0\n2 e2351c12 1\n";
        std::ofstream out(path_, std::ios::binary);
        out << text.substr(0, keep);
    }

    /** Drain @p in; returns the records it delivered. */
    static std::vector<MemRef>
    drain(DinTraceSource &in)
    {
        std::vector<MemRef> got;
        MemRef r;
        while (in.next(r))
            got.push_back(r);
        return got;
    }
};

TEST_F(DinCutTest, StrictRejectsARecordLineWithoutItsNewline)
{
    writeCut(32);
    ErrorPolicy policy;
    policy.mode = ErrorMode::Strict;
    DinTraceSource in(path_, policy);
    EXPECT_EQ(drain(in).size(), 2u);
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Data);
    EXPECT_NE(in.error().text().find(":4:"), std::string::npos)
        << in.error().text();
    EXPECT_NE(in.error().text().find("'2 e2'"), std::string::npos)
        << in.error().text();
}

TEST_F(DinCutTest, StrictReadsACompleteFileAndAnUnterminatedComment)
{
    ErrorPolicy policy;
    policy.mode = ErrorMode::Strict;
    writeCut(41); // the whole file, last newline included
    DinTraceSource whole(path_, policy);
    EXPECT_EQ(drain(whole).size(), 3u);
    EXPECT_FALSE(whole.failed()) << whole.error().text();

    {
        std::ofstream out(path_, std::ios::binary);
        out << "0 100 1\n# no newline after this comment";
    }
    DinTraceSource comment(path_, policy);
    EXPECT_EQ(drain(comment).size(), 1u);
    EXPECT_FALSE(comment.failed()) << comment.error().text();
}

TEST_F(DinCutTest, FailFastAndSkipReadTheCutLineAsItParses)
{
    // Neither can tell a cut file from a hand-written one that lacks
    // its final newline (din_io.h).
    writeCut(32);
    for (ErrorMode mode : {ErrorMode::FailFast, ErrorMode::Skip}) {
        ErrorPolicy policy;
        policy.mode = mode;
        DinTraceSource in(path_, policy);
        std::vector<MemRef> got = drain(in);
        EXPECT_FALSE(in.failed()) << in.error().text();
        EXPECT_EQ(in.skippedRecords(), 0u);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got[2], (MemRef{0xe2, RefType::Ifetch, 0}));
    }
}

TEST(DinIo, MissingFileIsAnIoError)
{
    DinTraceSource in("/nonexistent/trace.din");
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Io);
    MemRef r;
    EXPECT_FALSE(in.next(r));
}

TEST(DinIo, ResetKeepsTheOpenError)
{
    // Rewinding a file that never opened must not replace the cause
    // ("cannot open") with a symptom ("cannot rewind").
    DinTraceSource in("/nonexistent/trace.din");
    in.reset();
    ASSERT_TRUE(in.failed());
    EXPECT_EQ(in.error().code(), ErrorCode::Io);
    EXPECT_NE(in.error().text().find("cannot open din trace"),
              std::string::npos)
        << in.error().text();

    DinTraceSource none(nullptr, "no-stream.din");
    none.reset();
    EXPECT_NE(none.error().text().find("cannot open din trace"),
              std::string::npos)
        << none.error().text();
}

TEST(DinIo, UnwritablePathIsAnIoError)
{
    VectorTraceSource src({{0x10, RefType::Read, 0}});
    try {
        writeDin(src, "/nonexistent/dir/trace.din");
        FAIL() << "writeDin wrote to a missing directory";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Io);
    }
}

} // namespace
} // namespace trace
} // namespace assoc
