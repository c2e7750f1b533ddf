/**
 * @file
 * End-to-end sweeps over packed ftr trace files: file-backed jobs
 * must be bit-identical to in-memory replay, a sweep killed in the
 * middle of a trace must resume from its journal to byte-identical
 * JSON, skip accounting must survive the journal round trip, and a
 * trace larger than the per-job memory budget must stream within
 * bounds — the contracts the trace_pack CI smoke leans on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/journal.h"
#include "exec/report.h"
#include "exec/sweep.h"
#include "trace/atum_like.h"
#include "trace/ftr_format.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"

namespace assoc {
namespace exec {
namespace {

class FtrSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases concurrently.
        base_ = ::testing::TempDir() + "ftr_sweep_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        path_ = base_ + ".ftr";
        journal_ = base_ + ".journal";
        recs_ = generate(5000);
        trace::VectorTraceSource src(recs_);
        trace::FtrWriter::Options opt;
        opt.frame_records = 512;
        Expected<std::uint64_t> n =
            trace::writeFtr(src, path_, opt);
        ASSERT_TRUE(n.ok()) << n.error().text();
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(journal_.c_str());
    }

    static std::vector<trace::MemRef>
    generate(std::uint64_t refs)
    {
        trace::AtumLikeConfig cfg;
        cfg.segments = 1;
        cfg.refs_per_segment = refs;
        trace::AtumLikeGenerator gen(cfg);
        std::vector<trace::MemRef> recs;
        trace::MemRef r;
        while (gen.next(r))
            recs.push_back(r);
        return recs;
    }

    std::string base_, path_, journal_;
    std::vector<trace::MemRef> recs_;
};

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
        spec.schemes = {naive, mru,
                        core::SchemeSpec::paperPartial(a)};
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

/** In-memory factory over the same records the file holds. */
TraceFactory
memoryFactory(const std::vector<trace::MemRef> &recs)
{
    return [&recs](std::size_t) {
        return std::make_unique<trace::VectorTraceSource>(recs);
    };
}

/** Reference outputs: a plain runTrace() loop over @p make_trace. */
std::vector<sim::RunOutput>
serialOutputs(const std::vector<sim::RunSpec> &specs,
              const TraceFactory &make_trace)
{
    std::vector<sim::RunOutput> outs;
    for (std::size_t i = 0; i < specs.size(); ++i)
        outs.push_back(sim::runTrace(*make_trace(i), specs[i]));
    return outs;
}

/** Forwarding source that trips @p master after @p after records —
 *  a deterministic stand-in for SIGINT arriving mid-trace. */
class CancelMidStreamSource : public trace::ForwardingTraceSource
{
  public:
    CancelMidStreamSource(std::unique_ptr<trace::TraceSource> inner,
                          CancelToken *master, std::uint64_t after)
        : ForwardingTraceSource(*inner), owned_(std::move(inner)),
          master_(master), after_(after)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (++count_ == after_)
            master_->cancel();
        return inner_.next(ref);
    }

    void reset() override { inner_.reset(); }

  private:
    std::unique_ptr<trace::TraceSource> owned_;
    CancelToken *master_;
    std::uint64_t after_;
    std::uint64_t count_ = 0;
};

void
flipByteInFile(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x20));
}

TEST_F(FtrSweepTest, FileBackedSweepMatchesInMemoryReplay)
{
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<sim::RunOutput> want =
        serialOutputs(specs, memoryFactory(recs_));
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult got =
        runSweepChecked(specs, fileTraceFactory(path_), opts);
    ASSERT_EQ(got.jobs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got.jobs[i].ok()) << "job " << i;
        EXPECT_EQ(encodeRunOutput(got.jobs[i].output),
                  encodeRunOutput(want[i]))
            << "job " << i;
    }
}

TEST_F(FtrSweepTest, KilledMidTraceResumesToByteIdenticalJson)
{
    std::vector<sim::RunSpec> specs = sweepSpecs();

    // The reference: one clean, uninterrupted runTrace() loop.
    std::vector<sim::RunOutput> want =
        serialOutputs(specs, fileTraceFactory(path_));
    std::ostringstream want_json;
    writeSweepJson(want_json, specs, want);

    // Phase 1: the token trips 2000 records into job 1's trace —
    // job 0 is already journaled, job 1 dies mid-stream, job 2
    // never starts.
    CancelToken token;
    ErrorPolicy policy;
    TraceFactory factory = [&](std::size_t job)
        -> std::unique_ptr<trace::TraceSource> {
        auto src = std::make_unique<trace::FtrTraceSource>(path_,
                                                           policy);
        if (job == 1)
            return std::make_unique<CancelMidStreamSource>(
                std::move(src), &token, 2000);
        return src;
    };
    SweepOptions phase1;
    phase1.jobs = 1;
    phase1.cancel = &token;
    phase1.journal_path = journal_;
    phase1.spec_hash = hashSpecs(specs);
    SweepResult killed = runSweepChecked(specs, factory, phase1);
    EXPECT_TRUE(killed.interrupted);
    ASSERT_TRUE(killed.jobs[0].ok());
    EXPECT_FALSE(killed.jobs[1].ok());
    EXPECT_EQ(killed.jobs[2].status, JobStatus::Cancelled);

    // Phase 2: resume from the journal. Job 0 must be restored
    // verbatim; the rest replay; the merged result — down to the
    // serialized JSON bytes — must equal the uninterrupted run.
    SweepOptions phase2;
    phase2.jobs = 1;
    phase2.resume_path = journal_;
    phase2.spec_hash = hashSpecs(specs);
    SweepResult resumed =
        runSweepChecked(specs, fileTraceFactory(path_), phase2);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.jobs[0].from_journal);
    EXPECT_FALSE(resumed.jobs[1].from_journal);

    std::vector<sim::RunOutput> merged;
    for (const JobResult &j : resumed.jobs)
        merged.push_back(j.output);
    std::ostringstream got_json;
    writeSweepJson(got_json, specs, merged);
    EXPECT_EQ(got_json.str(), want_json.str());
}

TEST_F(FtrSweepTest, SkipAccountingSurvivesTheJournalRoundTrip)
{
    // Damage one frame; under Skip every job sees the identical
    // post-skip stream and reports the identical loss.
    {
        trace::FtrTraceSource probe(path_);
        ASSERT_FALSE(probe.failed());
        ASSERT_GT(probe.frameIndex().size(), 3u);
        flipByteInFile(path_,
                       probe.frameIndex()[2].offset +
                           trace::ftr::kFrameHeaderBytes + 5);
    }
    std::vector<sim::RunSpec> specs = sweepSpecs();
    SweepOptions opts;
    opts.jobs = 1;
    opts.journal_path = journal_;
    opts.spec_hash = hashSpecs(specs);
    SweepResult run = runSweepChecked(
        specs, fileTraceFactory(path_, skipPolicy()), opts);
    ASSERT_TRUE(run.allOk());
    for (const JobResult &j : run.jobs)
        EXPECT_EQ(j.output.skipped_records, 512u);

    // The JSON report surfaces the loss...
    std::ostringstream os;
    writeSweepJson(os, specs, run);
    EXPECT_NE(os.str().find("\"skipped_records\": 512"),
              std::string::npos);

    // ...and a journal-only resume restores it bit-exactly.
    SweepOptions resume;
    resume.jobs = 1;
    resume.resume_path = journal_;
    resume.spec_hash = hashSpecs(specs);
    SweepResult restored = runSweepChecked(
        specs, fileTraceFactory(path_, skipPolicy()), resume);
    ASSERT_TRUE(restored.allOk());
    for (std::size_t i = 0; i < restored.jobs.size(); ++i) {
        EXPECT_TRUE(restored.jobs[i].from_journal) << i;
        EXPECT_EQ(encodeRunOutput(restored.jobs[i].output),
                  encodeRunOutput(run.jobs[i].output));
        EXPECT_EQ(restored.jobs[i].output.skipped_records, 512u);
    }
}

TEST_F(FtrSweepTest, StreamsWithinAPerJobMemoryBudget)
{
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::vector<sim::RunOutput> want =
        serialOutputs(specs, fileTraceFactory(path_));

    // Far smaller than the trace, comfortably above one frame.
    SweepOptions bounded;
    bounded.jobs = 2;
    bounded.job_mem_budget = 1u << 20;
    SweepResult run =
        runSweepChecked(specs, fileTraceFactory(path_), bounded);
    ASSERT_TRUE(run.allOk());
    for (std::size_t i = 0; i < run.jobs.size(); ++i)
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output),
                  encodeRunOutput(want[i]));

    // A budget below one decoded frame is an isolated, structured
    // over-budget failure — not an OOM, not a wrong answer.
    SweepOptions starved;
    starved.jobs = 1;
    starved.max_retries = 0;
    starved.job_mem_budget = 2048;
    SweepResult oom =
        runSweepChecked(specs, fileTraceFactory(path_), starved);
    EXPECT_FALSE(oom.allOk());
    for (const JobResult &j : oom.jobs)
        EXPECT_EQ(j.status, JobStatus::OverBudget);
}

} // namespace
} // namespace exec
} // namespace assoc
