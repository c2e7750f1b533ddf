/**
 * @file
 * Read a trace file once: a checked sweep given a clean, fully
 * indexed .ftr file decodes it once, one run of frames per job, into
 * a shared buffer, and its level one once over that buffer. The
 * buffer must equal the streaming reader's stream record for record
 * at any worker count, and the sweep's outputs must equal the
 * factory overload's, where every job streams its own reader. Every
 * file or sweep that is not fit to share streams exactly as that
 * overload does: the same outputs, skipped records and errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/report.h"
#include "exec/sweep.h"
#include "trace/ftr_reader.h"

namespace assoc {
namespace exec {
namespace {

using trace::MemRef;

/** @p segments flush-separated segments of @p refs records each. */
std::vector<MemRef>
atumRecords(unsigned segments, std::uint64_t refs)
{
    trace::AtumLikeConfig cfg;
    cfg.seed = 3131;
    cfg.segments = segments;
    cfg.refs_per_segment = refs;
    trace::AtumLikeGenerator gen(cfg);
    return trace::materialize(gen, gen.totalRefs());
}

/** @p recs with flush markers added first, back to back after the
 *  first half, and last: some parts are then a lone marker or
 *  empty. */
std::vector<MemRef>
withEdgeMarkers(std::vector<MemRef> recs)
{
    recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(recs.size() / 2),
                {MemRef::flush(), MemRef::flush()});
    recs.insert(recs.begin(), MemRef::flush());
    recs.push_back(MemRef::flush());
    return recs;
}

void
writeTrace(const std::vector<MemRef> &recs, const std::string &path,
           std::uint32_t frame_records = 512)
{
    trace::VectorTraceSource src(recs);
    trace::writeTraceFile(src, path, frame_records);
}

/** trace_pack sweep's three jobs: one 4K-16 level one. */
std::vector<sim::RunSpec>
sweepSpecs()
{
    std::vector<sim::RunSpec> specs;
    for (unsigned a : {2u, 4u, 8u}) {
        sim::RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(4096, 16, 1),
            mem::CacheGeometry(65536, 32, a), true};
        core::SchemeSpec naive, mru;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {naive, mru, core::SchemeSpec::paperPartial(a)};
        specs.push_back(spec);
    }
    return specs;
}

ErrorPolicy
skipPolicy()
{
    ErrorPolicy p;
    p.mode = ErrorMode::Skip;
    return p;
}

/** Every slot of @p got as in @p want: status, error text, skipped
 *  records and the encoded output. */
void
expectSameSlots(const SweepResult &got, const SweepResult &want)
{
    ASSERT_EQ(got.jobs.size(), want.jobs.size());
    for (std::size_t i = 0; i < want.jobs.size(); ++i) {
        const JobResult &g = got.jobs[i], &w = want.jobs[i];
        EXPECT_EQ(g.status, w.status) << "job " << i;
        EXPECT_EQ(g.error.text(), w.error.text()) << "job " << i;
        EXPECT_EQ(g.output.skipped_records, w.output.skipped_records)
            << "job " << i;
        EXPECT_EQ(encodeRunOutput(g.output), encodeRunOutput(w.output))
            << "job " << i;
    }
}

class FtrReadOnceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases concurrently.
        base_ = ::testing::TempDir() + "ftr_read_once_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        path_ = base_ + ".ftr";
        recs_ = atumRecords(3, 12000);
        writeTrace(recs_, path_);
    }

    void
    TearDown() override
    {
        for (const char *ext : {".ftr", ".din", ".journal", ".journal2"})
            std::remove((base_ + ext).c_str());
    }

    /** The path overload streams, exactly as the factory overload
     *  does, over @p path under @p policy and @p opts. */
    void
    expectStreams(const std::string &path, ErrorPolicy policy,
                  const SweepOptions &opts)
    {
        const std::vector<sim::RunSpec> specs = sweepSpecs();
        const SweepResult want =
            runSweepChecked(specs, fileTraceFactory(path, policy), opts);
        const SweepResult got =
            runSweepChecked(specs, path, policy, opts);
        EXPECT_EQ(got.shared_trace_bytes, 0u);
        EXPECT_EQ(got.request_stream_bytes, 0u);
        expectSameSlots(got, want);
    }

    /** A byte-exact copy of the file with @p gap junk bytes between
     *  its first two frames, re-indexed so the footer stays intact:
     *  every frame verifies, but they no longer tile the file. */
    void
    insertGapAfterFirstFrame(std::size_t gap)
    {
        trace::FtrTraceSource file(path_);
        ASSERT_FALSE(file.failed());
        std::vector<trace::ftr::IndexEntry> index = file.frameIndex();
        ASSERT_GT(index.size(), 2u);
        std::ifstream in(path_, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        bytes.resize(static_cast<std::size_t>(file.dataEnd()));
        bytes.insert(bytes.begin() +
                         static_cast<std::ptrdiff_t>(index[1].offset),
                     gap, '\0');
        for (std::size_t i = 1; i < index.size(); ++i)
            index[i].offset += gap;
        std::vector<std::uint8_t> footer;
        trace::ftr::encodeFooter(index, file.totalRecords(), footer);
        bytes.insert(bytes.end(), footer.begin(), footer.end());
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::string base_, path_;
    std::vector<MemRef> recs_;
};

TEST(FtrDecode, EqualsTheStreamingReaderAtEveryWorkerCount)
{
    const std::string path = ::testing::TempDir() + "ftr_decode.ftr";
    // No marker, a marker between segments, and edge markers.
    const std::vector<MemRef> plain = atumRecords(1, 140000);
    const std::vector<MemRef> segmented = atumRecords(3, 70000);
    const std::vector<MemRef> edges = withEdgeMarkers(segmented);
    const std::vector<MemRef> *shapes[] = {&plain, &segmented, &edges};
    for (const std::vector<MemRef> *recs : shapes) {
        for (std::uint32_t frame : {512u, 65536u}) {
            writeTrace(*recs, path, frame);
            trace::FtrTraceSource reader(path);
            const std::vector<MemRef> want = trace::materialize(reader);
            ASSERT_EQ(want, *recs);
            // 0, then just after each marker that closes at least
            // 64K references.
            std::vector<std::size_t> want_starts = {0};
            for (std::size_t p = 0; p < want.size(); ++p)
                if (want[p].isFlush() &&
                    p + 1 - want_starts.back() >= (1u << 16))
                    want_starts.push_back(p + 1);
            for (unsigned workers : {1u, 2u, 4u, 32u}) {
                SCOPED_TRACE(std::to_string(want.size()) + " records, " +
                             std::to_string(want_starts.size()) +
                             " parts, frames of " + std::to_string(frame) +
                             ", " + std::to_string(workers) + " workers");
                std::vector<std::size_t> starts;
                const trace::VectorTraceSource::Buffer got =
                    decodeFtrTrace(path, workers, &starts);
                ASSERT_TRUE(got);
                ASSERT_EQ(got->size(), want.size());
                const auto diff =
                    std::mismatch(got->begin(), got->end(), want.begin());
                EXPECT_EQ(diff.first, got->end())
                    << "first difference at record "
                    << diff.first - got->begin();
                EXPECT_EQ(starts, want_starts);
            }
        }
    }
    std::remove(path.c_str());
}

TEST_F(FtrReadOnceTest, MatchesTheFactoryOverloadAtEveryJobCount)
{
    // Segments long enough that the filter cuts the trace at their
    // markers, and an empty last part.
    recs_ = withEdgeMarkers(atumRecords(3, 70000));
    writeTrace(recs_, path_);
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    SweepOptions serial;
    serial.jobs = 1;
    const SweepResult want =
        runSweepChecked(specs, fileTraceFactory(path_), serial);
    ASSERT_TRUE(want.allOk());
    EXPECT_EQ(want.shared_trace_bytes, 0u);
    for (unsigned jobs : {1u, 2u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        const SweepResult got =
            runSweepChecked(specs, path_, ErrorPolicy(), opts);
        EXPECT_EQ(got.shared_trace_bytes, recs_.size() * sizeof(MemRef))
            << "jobs=" << jobs << " did not read the file once";
        for (const JobResult &j : got.jobs)
            EXPECT_TRUE(j.filtered) << "jobs=" << jobs;
        expectSameSlots(got, want);
    }
}

TEST_F(FtrReadOnceTest, DamagedPayloadStreams)
{
    {
        // One flipped payload byte in the third frame.
        trace::FtrTraceSource probe(path_);
        ASSERT_GT(probe.frameIndex().size(), 3u);
        const std::uint64_t at = probe.frameIndex()[2].offset +
                                 trace::ftr::kFrameHeaderBytes + 5;
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(at));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(at));
        f.put(static_cast<char>(c ^ 0x20));
    }
    SweepOptions opts;
    opts.jobs = 2;
    expectStreams(path_, skipPolicy(), opts);
    const SweepResult skipped =
        runSweepChecked(sweepSpecs(), path_, skipPolicy(), opts);
    for (const JobResult &j : skipped.jobs)
        EXPECT_EQ(j.output.skipped_records, 512u);
    expectStreams(path_, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, TornFooterStreams)
{
    ASSERT_NE(FaultInjector::tearFooter(path_), 0u);
    SweepOptions opts;
    opts.jobs = 2;
    expectStreams(path_, skipPolicy(), opts);
    expectStreams(path_, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, CrashShapeStreams)
{
    ASSERT_NE(FaultInjector::tearFooter(path_), 0u);
    ASSERT_TRUE(FaultInjector::unpatchHeader(path_));
    SweepOptions opts;
    opts.jobs = 2;
    expectStreams(path_, skipPolicy(), opts);
    expectStreams(path_, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, FramesThatDoNotTileTheFileStream)
{
    // Every frame and the footer verify, but the second frame does
    // not start where the first ends: the streaming reader meets the
    // junk in between, so the file is not read once.
    insertGapAfterFirstFrame(7);
    SweepOptions opts;
    opts.jobs = 2;
    expectStreams(path_, skipPolicy(), opts);
    expectStreams(path_, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, BudgetBelowTheBufferStreams)
{
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::uint64_t bytes = recs_.size() * sizeof(MemRef);
    std::uint64_t hier = 0;
    for (const sim::RunSpec &s : specs)
        hier = std::max(hier,
                        mem::TwoLevelHierarchy(s.hier).footprintBytes());
    // Each streaming job holds its hierarchy, at most four decoded
    // 512-record frames (16K) and a payload buffer.
    ASSERT_LE(2 * (hier + (32u << 10)), bytes - 1)
        << "two streaming jobs must fit the budget";
    SweepOptions opts;
    opts.jobs = 2;
    opts.mem_budget = bytes - 1;
    expectStreams(path_, ErrorPolicy(), opts);
    const SweepResult run =
        runSweepChecked(specs, path_, ErrorPolicy(), opts);
    EXPECT_TRUE(run.allOk());
}

TEST_F(FtrReadOnceTest, DinFileStreams)
{
    const std::string din = base_ + ".din";
    writeTrace(recs_, din);
    SweepOptions opts;
    opts.jobs = 2;
    expectStreams(din, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, TrippedTokenStreams)
{
    CancelToken token;
    token.cancel();
    SweepOptions opts;
    opts.jobs = 2;
    opts.cancel = &token;
    expectStreams(path_, ErrorPolicy(), opts);
}

TEST_F(FtrReadOnceTest, OneJobLeftAfterAResumeStreams)
{
    // Two of three jobs journaled: the sweep stops after the second.
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::string journal = base_ + ".journal";
    const std::string copy = base_ + ".journal2";
    CancelToken token;
    FaultPlan plan;
    plan.cancel_after = 2;
    FaultInjector inject(plan, &token);
    SweepOptions first;
    first.jobs = 1;
    first.cancel = &token;
    first.inject = &inject;
    first.journal_path = journal;
    first.spec_hash = hashSpecs(specs);
    const SweepResult cut = runSweepChecked(specs, path_, ErrorPolicy(), first);
    ASSERT_EQ(cut.cancelled(), 1u);
    {
        std::ifstream in(journal, std::ios::binary);
        std::ofstream out(copy, std::ios::binary | std::ios::trunc);
        out << in.rdbuf();
    }

    // Each overload resumes from its own copy: resuming appends.
    SweepOptions resume;
    resume.jobs = 2;
    resume.spec_hash = hashSpecs(specs);
    resume.resume_path = journal;
    const SweepResult want =
        runSweepChecked(specs, fileTraceFactory(path_), resume);
    resume.resume_path = copy;
    const SweepResult got =
        runSweepChecked(specs, path_, ErrorPolicy(), resume);
    EXPECT_EQ(got.resumed, 2u);
    EXPECT_EQ(got.shared_trace_bytes, 0u);
    expectSameSlots(got, want);
}

TEST_F(FtrReadOnceTest, KilledSweepResumesToByteIdenticalJson)
{
    // Killed after job 0 of a sweep that read the file once, as
    // trace_pack sweep --cancel-after=1 does; the resume reads it once
    // again for the two jobs left. (FtrSweepTest's
    // KilledMidTraceResumesToByteIdenticalJson kills one mid-trace.)
    const std::vector<sim::RunSpec> specs = sweepSpecs();
    const std::string journal = base_ + ".journal";
    std::vector<sim::RunOutput> clean;
    for (std::size_t i = 0; i < specs.size(); ++i)
        clean.push_back(
            sim::runTrace(*fileTraceFactory(path_)(i), specs[i]));
    std::ostringstream want;
    writeSweepJson(want, specs, clean);

    CancelToken token;
    FaultPlan plan;
    plan.cancel_after = 1;
    FaultInjector inject(plan, &token);
    SweepOptions first;
    first.jobs = 1;
    first.cancel = &token;
    first.inject = &inject;
    first.journal_path = journal;
    first.spec_hash = hashSpecs(specs);
    const SweepResult killed =
        runSweepChecked(specs, path_, ErrorPolicy(), first);
    EXPECT_TRUE(killed.interrupted);
    EXPECT_EQ(killed.shared_trace_bytes, recs_.size() * sizeof(MemRef));
    ASSERT_TRUE(killed.jobs[0].ok());

    SweepOptions resume;
    resume.jobs = 2;
    resume.resume_path = journal;
    resume.spec_hash = hashSpecs(specs);
    const SweepResult run =
        runSweepChecked(specs, path_, ErrorPolicy(), resume);
    ASSERT_TRUE(run.allOk());
    EXPECT_EQ(run.resumed, 1u);
    EXPECT_EQ(run.shared_trace_bytes, recs_.size() * sizeof(MemRef));
    std::vector<sim::RunOutput> merged;
    for (const JobResult &j : run.jobs)
        merged.push_back(j.output);
    std::ostringstream got;
    writeSweepJson(got, specs, merged);
    EXPECT_EQ(got.str(), want.str());
}

} // namespace
} // namespace exec
} // namespace assoc
