/**
 * @file
 * The shared trace's parallel fill: synthesizeAtumTrace() writes
 * each segment, and the flush marker after it, as one runJobs() job
 * with its own generator, and the buffer must equal one serial
 * generator's stream record for record at every worker count,
 * including more workers than segments.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

TEST(TraceFill, EqualsTheSerialStreamAtEveryWorkerCount)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (unsigned segments : {1u, 2u, 23u}) {
            for (bool flush : {true, false}) {
                trace::AtumLikeConfig cfg;
                cfg.seed = seed;
                cfg.segments = segments;
                cfg.refs_per_segment = 2000;
                cfg.flush_between_segments = flush;
                trace::AtumLikeGenerator serial(cfg);
                const std::vector<trace::MemRef> want =
                    trace::materialize(serial, serial.totalRefs());
                for (unsigned workers : {1u, 2u, 4u, 32u}) {
                    SCOPED_TRACE("seed " + std::to_string(seed) +
                                 ", " + std::to_string(segments) +
                                 " segments, flush " +
                                 std::to_string(flush) + ", " +
                                 std::to_string(workers) +
                                 " workers");
                    const trace::VectorTraceSource::Buffer got =
                        synthesizeAtumTrace(cfg, workers);
                    ASSERT_EQ(got->size(), want.size());
                    const auto diff =
                        std::mismatch(got->begin(), got->end(),
                                      want.begin());
                    EXPECT_EQ(diff.first, got->end())
                        << "first difference at record "
                        << diff.first - got->begin();
                }
            }
        }
    }
}

TEST(TraceFill, InvalidConfigThrowsTheGeneratorsError)
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 0;
    try {
        synthesizeAtumTrace(cfg, 2);
        FAIL() << "an invalid config was synthesized";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Usage);
    }
}

TEST(TraceFill, TraceTooLargeToAddressThrowsBadAlloc)
{
    // 4 x 2^62 references wrap totalRefs() around to the 3 flush
    // markers: a buffer sized by it would be overrun.
    trace::AtumLikeConfig cfg;
    cfg.segments = 4;
    cfg.refs_per_segment = std::uint64_t{1} << 62;
    ASSERT_EQ(trace::AtumLikeGenerator(cfg).totalRefs(), 3u);
    EXPECT_THROW(synthesizeAtumTrace(cfg, 2), std::bad_alloc);
}

} // namespace
} // namespace exec
} // namespace assoc
