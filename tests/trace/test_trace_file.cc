/**
 * @file
 * trace/trace_file, the one place that knows the trace formats:
 * writing by extension, reading back by extension or magic sniff,
 * and refusing the removed packed .bin format on both sides with a
 * message that names it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_file.h"
#include "util/rng.h"

namespace assoc {
namespace trace {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases concurrently.
        base_ = ::testing::TempDir() + "trace_file_" +
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

std::vector<MemRef>
someRecords(std::size_t n)
{
    std::vector<MemRef> recs(n);
    Pcg32 rng(0x7F11E);
    for (MemRef &r : recs) {
        r.addr = rng.next();
        r.type = static_cast<RefType>(rng.below(3));
        r.pid = static_cast<std::uint8_t>(rng.below(4));
    }
    return recs;
}

TEST_F(TraceFileTest, WritesByExtensionAndReadsBackEitherFormat)
{
    const std::vector<MemRef> recs = someRecords(3000);
    for (std::string ext : {"din", "ftr"}) {
        std::string path = scratch("." + ext);
        VectorTraceSource src(recs);
        writeTraceFile(src, path, 256);
        Expected<TraceFormat> fmt = detectTraceFormat(path);
        ASSERT_TRUE(fmt.ok()) << fmt.error().text();
        EXPECT_EQ(traceFormatName(fmt.value()), ext);
        std::unique_ptr<TraceSource> in = openTraceFile(path);
        EXPECT_EQ(materialize(*in), recs) << ext;
    }
}

TEST_F(TraceFileTest, RemovedBinMagicIsADataErrorNamingTheFormat)
{
    // The header the packed .bin writer began every file with:
    // magic "ASTR", version 1, a record count of zero.
    const char header[16] = {'A', 'S', 'T', 'R', 1};
    for (const char *ext : {".bin", ".trace"}) {
        std::string path = scratch(ext);
        std::ofstream(path, std::ios::binary).write(header, 16);

        Expected<TraceFormat> fmt = detectTraceFormat(path);
        ASSERT_FALSE(fmt.ok()) << ext;
        EXPECT_EQ(fmt.error().code(), ErrorCode::Data);

        // Not parsed as din text: the reader fails before any record.
        std::unique_ptr<TraceSource> in = openTraceFile(path);
        MemRef r;
        EXPECT_FALSE(in->next(r)) << ext;
        in->reset();
        EXPECT_FALSE(in->next(r)) << ext;
        ASSERT_TRUE(in->failed()) << ext;
        EXPECT_EQ(in->error().code(), ErrorCode::Data);
        EXPECT_NE(in->error().text().find("packed .bin"),
                  std::string::npos)
            << in->error().text();
    }
}

TEST_F(TraceFileTest, OutputNeedsADinOrFtrExtension)
{
    VectorTraceSource src(someRecords(10));
    for (std::string ext : {".bin", ".trace", ".din.gz"}) {
        std::string path = scratch(ext);
        try {
            writeTraceFile(src, path);
            ADD_FAILURE() << ext << " was accepted";
        } catch (const ErrorException &e) {
            EXPECT_EQ(e.error().code(), ErrorCode::Usage) << ext;
            bool names_bin =
                e.error().text().find("packed .bin format was "
                                      "removed") != std::string::npos;
            EXPECT_EQ(names_bin, ext == ".bin") << e.error().text();
        }
        EXPECT_FALSE(std::ifstream(path).good()) << path << " was created";
    }
}

} // namespace
} // namespace trace
} // namespace assoc
