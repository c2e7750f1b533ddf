/**
 * @file
 * Corrupted-trace corpus: every checked-in bad din file under
 * tests/trace/corpus/ is streamed under all three ErrorPolicies.
 * Whatever the damage — bad labels, bad addresses, junk lines — the
 * reader must terminate, never throw, and either deliver a bounded
 * stream or report a structured Data/Io error with non-empty text.
 * (The ftr reader's damage shapes are generated, not checked in:
 * test_ftr_io.cc and test_ftr_fuzz.cc.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/din_io.h"

#ifndef ASSOC_CORPUS_DIR
#error "build must define ASSOC_CORPUS_DIR"
#endif

namespace assoc {
namespace trace {
namespace {

namespace fs = std::filesystem;

std::vector<std::string>
corpusFiles(const std::string &ext)
{
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(ASSOC_CORPUS_DIR))
        if (entry.path().extension() == ext)
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

/** Stream @p src to the end, bounded; returns records delivered. */
std::uint64_t
drain(TraceSource &src)
{
    constexpr std::uint64_t kBound = 100000;
    MemRef r;
    std::uint64_t n = 0;
    while (n <= kBound && src.next(r))
        ++n;
    EXPECT_LE(n, kBound) << "runaway reader";
    return n;
}

void
checkContract(const TraceSource &src, const std::string &file,
              ErrorMode mode)
{
    if (src.failed()) {
        EXPECT_TRUE(src.error().code() == ErrorCode::Data ||
                    src.error().code() == ErrorCode::Io)
            << file << ": " << src.error().text();
        EXPECT_FALSE(src.error().text().empty()) << file;
    } else if (mode == ErrorMode::Skip) {
        EXPECT_LE(src.skippedRecords(), ErrorPolicy().max_skips)
            << file;
    }
    if (mode == ErrorMode::FailFast) {
        EXPECT_EQ(src.skippedRecords(), 0u) << file;
    }
}

class CorpusTest : public ::testing::TestWithParam<ErrorMode>
{};

TEST_P(CorpusTest, DinFilesNeverCrashTheReader)
{
    std::vector<std::string> files = corpusFiles(".din");
    ASSERT_FALSE(files.empty());
    ErrorPolicy policy;
    policy.mode = GetParam();
    for (const std::string &file : files) {
        DinTraceSource src(file, policy);
        drain(src);
        checkContract(src, file, policy.mode);
    }
}

TEST_P(CorpusTest, FailFastAndStrictRejectEveryCorpusFile)
{
    // Every corpus entry is damaged in a way FailFast detects. Skip
    // mode is allowed to recover from anything.
    if (GetParam() == ErrorMode::Skip)
        GTEST_SKIP() << "skip mode is allowed to recover";
    ErrorPolicy policy;
    policy.mode = GetParam();
    for (const std::string &file : corpusFiles(".din")) {
        DinTraceSource src(file, policy);
        drain(src);
        EXPECT_TRUE(src.failed()) << file;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CorpusTest,
                         ::testing::Values(ErrorMode::FailFast,
                                           ErrorMode::Skip,
                                           ErrorMode::Strict),
                         [](const auto &info) {
                             switch (info.param) {
                               case ErrorMode::FailFast:
                                 return "FailFast";
                               case ErrorMode::Skip:
                                 return "Skip";
                               case ErrorMode::Strict:
                                 return "Strict";
                             }
                             return "Unknown";
                         });

} // namespace
} // namespace trace
} // namespace assoc
