/**
 * @file
 * IO-fault injection tests: the FaultyStreamBuf wrapper itself, and
 * the contract every trace reader (din/ftr) owes when the *device*
 * fails rather than the data. An EIO must surface as a structured
 * error under every ErrorPolicy, because a hard fault mistaken for
 * end-of-file silently computes statistics over a prefix; skip mode
 * is for damaged bytes, not dying disks. A short read looks exactly
 * like a shorter file, so the ftr reader owes it the torn-tail
 * contract: rejected unless skipping, and every lost record counted
 * when it is. The din reader sees one only when it splits a line,
 * and only Strict rejects that line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/ftr_reader.h"
#include "trace/trace_file.h"
#include "util/io_fault.h"
#include "util/rng.h"

namespace assoc {
namespace trace {
namespace {

class IoFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases concurrently.
        base_ = ::testing::TempDir() + "io_fault_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
    }

    void
    TearDown() override
    {
        for (const std::string &p : cleanup_)
            std::remove(p.c_str());
    }

    std::string
    scratch(const std::string &ext)
    {
        std::string p = base_ + ext;
        cleanup_.push_back(p);
        return p;
    }

    std::string base_;
    std::vector<std::string> cleanup_;
};

void
writeBytes(const std::string &path, std::size_t n)
{
    std::ofstream out(path, std::ios::binary);
    Pcg32 rng(0x10FA);
    for (std::size_t i = 0; i < n; ++i)
        out.put(static_cast<char>(rng.next()));
}

std::vector<MemRef>
someRecords(std::size_t n)
{
    std::vector<MemRef> recs(n);
    Pcg32 rng(0x10FB);
    for (MemRef &r : recs) {
        r.addr = rng.next();
        r.type = static_cast<RefType>(rng.below(3));
        r.pid = static_cast<std::uint8_t>(rng.below(4));
    }
    return recs;
}

ErrorPolicy
skipPolicy()
{
    ErrorPolicy p;
    p.mode = ErrorMode::Skip;
    return p;
}

TEST_F(IoFaultTest, ShortReadDeliversTheExactPrefix)
{
    std::string path = scratch(".raw");
    writeBytes(path, 10000);
    IoFaultPlan plan;
    plan.short_read_at = 1234;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    ASSERT_TRUE(in->good());
    std::vector<char> buf(16384);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    // Exactly the bytes before the fault, then a clean EOF — the
    // torn-tail shape, indistinguishable from a truncated file.
    EXPECT_EQ(in->gcount(), 1234);
    EXPECT_TRUE(in->eof());
    EXPECT_FALSE(in->bad());
}

TEST_F(IoFaultTest, IoErrorSetsBadbitNotEof)
{
    std::string path = scratch(".raw");
    writeBytes(path, 10000);
    IoFaultPlan plan;
    plan.io_error_at = 777;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(16384);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_LE(in->gcount(), 777);
    EXPECT_TRUE(in->bad());
}

TEST_F(IoFaultTest, FaultsReArmAfterSeek)
{
    // The fault is a property of the byte offset, not of elapsed
    // reads: readers rewind on reset() and must hit it again.
    std::string path = scratch(".raw");
    writeBytes(path, 5000);
    IoFaultPlan plan;
    plan.short_read_at = 600;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(8192);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    ASSERT_EQ(in->gcount(), 600);
    in->clear();
    in->seekg(0);
    ASSERT_TRUE(in->good());
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_EQ(in->gcount(), 600);
    // And bytes before the fault are readable after a short seek.
    in->clear();
    in->seekg(100);
    in->read(buf.data(), 200);
    EXPECT_EQ(in->gcount(), 200);
}

TEST_F(IoFaultTest, HardErrorTakesPrecedenceOverShortRead)
{
    std::string path = scratch(".raw");
    writeBytes(path, 5000);
    IoFaultPlan plan;
    plan.short_read_at = 4000;
    plan.io_error_at = 300;
    std::unique_ptr<std::istream> in = openFaultyFile(path, plan);
    std::vector<char> buf(8192);
    in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
    EXPECT_TRUE(in->bad());
}

TEST_F(IoFaultTest, UnopenableFileSetsFailbit)
{
    IoFaultPlan plan;
    std::unique_ptr<std::istream> in =
        openFaultyFile(base_ + "/no/such/file", plan);
    EXPECT_TRUE(in->fail());
}

TEST_F(IoFaultTest, FtrShortReadIsATornTailUnderEveryPolicy)
{
    std::string path = scratch(".ftr");
    VectorTraceSource src(someRecords(20000));
    writeTraceFile(src, path, 1024);
    std::vector<ftr::IndexEntry> index = FtrTraceSource(path).frameIndex();
    ASSERT_GT(index.size(), 4u);

    IoFaultPlan plan;
    plan.short_read_at = index.back().offset / 4;
    // The frames wholly before the cut are what survives it.
    std::uint64_t whole = 0;
    for (std::size_t i = 1; i < index.size(); ++i)
        if (index[i].offset <= plan.short_read_at)
            whole = index[i].start_index;
    ASSERT_GT(whole, 0u);

    for (ErrorMode mode :
         {ErrorMode::FailFast, ErrorMode::Skip, ErrorMode::Strict}) {
        ErrorPolicy policy;
        policy.mode = mode;
        std::unique_ptr<TraceSource> in =
            openTraceFile(path, policy, plan);
        std::uint64_t streamed = 0;
        MemRef r;
        while (in->next(r))
            ++streamed;
        if (mode != ErrorMode::Skip) {
            // The footer and trailer are cut off too, so the reader
            // refuses the file before its first record.
            EXPECT_TRUE(in->failed());
            EXPECT_EQ(in->error().code(), ErrorCode::Data);
            EXPECT_EQ(streamed, 0u);
            EXPECT_EQ(in->skippedRecords(), 0u);
        } else {
            EXPECT_FALSE(in->failed()) << in->error().text();
            EXPECT_EQ(streamed, whole);
            EXPECT_EQ(streamed + in->skippedRecords(), 20000u);
        }
    }
}

TEST_F(IoFaultTest, DinShortReadSplittingALineFailsOnlyUnderStrict)
{
    // A short read three bytes into record line 51 leaves that line
    // without its newline ("<label> <first hex digit>"). Strict
    // rejects it; FailFast and Skip read it as a record (din_io.h).
    std::string path = scratch(".din");
    VectorTraceSource src(someRecords(2000));
    writeTraceFile(src, path);
    std::ifstream text(path, std::ios::binary);
    std::string line;
    std::uint64_t at = 0;
    for (int i = 0; i < 51; ++i) { // the header, then 50 records
        ASSERT_TRUE(std::getline(text, line));
        at += line.size() + 1;
    }
    IoFaultPlan plan;
    plan.short_read_at = at + 3;

    for (ErrorMode mode :
         {ErrorMode::FailFast, ErrorMode::Skip, ErrorMode::Strict}) {
        ErrorPolicy policy;
        policy.mode = mode;
        std::unique_ptr<TraceSource> in =
            openTraceFile(path, policy, plan);
        std::uint64_t streamed = 0;
        MemRef r;
        while (in->next(r))
            ++streamed;
        if (mode == ErrorMode::Strict) {
            EXPECT_EQ(streamed, 50u);
            ASSERT_TRUE(in->failed());
            EXPECT_EQ(in->error().code(), ErrorCode::Data);
            EXPECT_NE(in->error().text().find(":52:"),
                      std::string::npos)
                << in->error().text();
        } else {
            EXPECT_EQ(streamed, 51u);
            EXPECT_FALSE(in->failed()) << in->error().text();
        }
    }
}

TEST_F(IoFaultTest, EveryFormatSurfacesEioAsAHardError)
{
    for (const char *ext : {".din", ".ftr"}) {
        std::string path = scratch(ext);
        VectorTraceSource src(someRecords(2000));
        writeTraceFile(src, path);
        IoFaultPlan plan;
        plan.io_error_at = 500;
        std::unique_ptr<TraceSource> in =
            openTraceFile(path, skipPolicy(), plan);
        MemRef r;
        while (in->next(r)) {
        }
        EXPECT_TRUE(in->failed())
            << ext << ": EIO masqueraded as end-of-file";
        EXPECT_EQ(in->error().code(), ErrorCode::Io) << ext;
        EXPECT_FALSE(in->error().text().empty()) << ext;
    }
}

} // namespace
} // namespace trace
} // namespace assoc
