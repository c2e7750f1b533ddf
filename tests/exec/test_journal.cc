/**
 * @file
 * Checkpoint-journal tests: bit-exact encode/decode of RunOutputs,
 * tolerant journal reading (torn and corrupt lines), spec-hash
 * validation, and the headline resume property — a cancelled sweep
 * resumed from its journal merges to a result bit-identical to the
 * uninterrupted run, including across a SIGINT.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"

namespace assoc {
namespace exec {
namespace {

trace::AtumLikeConfig
smallTrace()
{
    trace::AtumLikeConfig cfg;
    cfg.segments = 1;
    cfg.refs_per_segment = 5000;
    return cfg;
}

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
        if (a == 4)
            spec.with_distances = true;
        specs.push_back(spec);
    }
    return specs;
}

sim::RunOutput
oneOutput(const trace::AtumLikeConfig &tcfg, const sim::RunSpec &spec)
{
    trace::AtumLikeGenerator gen(tcfg);
    return sim::runTrace(gen, spec);
}

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs every case as its own process, concurrently:
        // the path must be unique per test, not just per binary.
        path_ = ::testing::TempDir() + "journal_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".journal";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST(JournalCodec, RoundTripIsBitExact)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    for (const sim::RunSpec &spec : specs) {
        sim::RunOutput out = oneOutput(tcfg, spec);
        std::string payload = encodeRunOutput(out);
        Expected<sim::RunOutput> back = decodeRunOutput(payload);
        ASSERT_TRUE(back.ok()) << back.error().text();
        // Re-encoding the decoded output must reproduce the payload
        // byte for byte: every double survives via its bit pattern.
        EXPECT_EQ(encodeRunOutput(back.value()), payload);
    }
}

TEST(JournalCodec, SkippedRecordsSurviveTheRoundTrip)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    sim::RunOutput out = oneOutput(tcfg, sweepSpecs()[0]);
    out.skipped_records = 65536; // a damaged-trace run
    std::string payload = encodeRunOutput(out);
    Expected<sim::RunOutput> back = decodeRunOutput(payload);
    ASSERT_TRUE(back.ok()) << back.error().text();
    EXPECT_EQ(back.value().skipped_records, 65536u);
    EXPECT_EQ(encodeRunOutput(back.value()), payload);
}

TEST(JournalCodec, V1PayloadsDecodeWithZeroSkips)
{
    // Journals written before skip accounting carry no "skips"
    // field; they must keep decoding (as an undamaged run) so a
    // resume across the version bump still works.
    trace::AtumLikeConfig tcfg = smallTrace();
    sim::RunOutput out = oneOutput(tcfg, sweepSpecs()[0]);
    out.skipped_records = 7;
    std::string payload = encodeRunOutput(out);
    std::size_t at = payload.rfind(" skips ");
    ASSERT_NE(at, std::string::npos);
    std::string v1 = "v1" + payload.substr(2, at - 2);
    Expected<sim::RunOutput> back = decodeRunOutput(v1);
    ASSERT_TRUE(back.ok()) << back.error().text();
    EXPECT_EQ(back.value().skipped_records, 0u);
    // A v2 payload with the skips field torn off is corrupt.
    EXPECT_FALSE(decodeRunOutput(payload.substr(0, at)).ok());
}

TEST(JournalCodec, RejectsGarbage)
{
    EXPECT_FALSE(decodeRunOutput("").ok());
    EXPECT_FALSE(decodeRunOutput("v1 nonsense").ok());
    EXPECT_FALSE(decodeRunOutput("v2 stats 1 2 3").ok());
}

TEST(JournalCodec, HashSpecsSeparatesSweeps)
{
    std::vector<sim::RunSpec> a = sweepSpecs();
    std::vector<sim::RunSpec> b = sweepSpecs();
    EXPECT_EQ(hashSpecs(a, 7), hashSpecs(b, 7));
    EXPECT_NE(hashSpecs(a, 7), hashSpecs(a, 8)); // trace identity
    b[1].wb_optimization = !b[1].wb_optimization;
    EXPECT_NE(hashSpecs(a, 7), hashSpecs(b, 7)); // spec identity
}

TEST_F(JournalTest, WriteThenReadRestoresEveryRecord)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    JournalWriter w;
    ASSERT_TRUE(w.open(path_, hash, specs.size(), false).ok());
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        sim::RunOutput out = oneOutput(tcfg, specs[i]);
        payloads.push_back(encodeRunOutput(out));
        ASSERT_TRUE(w.append(i, out).ok());
    }

    Expected<JournalData> data = readJournal(path_);
    ASSERT_TRUE(data.ok()) << data.error().text();
    EXPECT_EQ(data.value().spec_hash, hash);
    EXPECT_EQ(data.value().jobs, specs.size());
    EXPECT_EQ(data.value().dropped_lines, 0u);
    ASSERT_EQ(data.value().entries.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(encodeRunOutput(data.value().entries.at(i)),
                  payloads[i]);
}

TEST_F(JournalTest, TornFinalLineIsTolerated)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    JournalWriter w;
    ASSERT_TRUE(w.open(path_, 1, specs.size(), false).ok());
    ASSERT_TRUE(w.append(0, oneOutput(tcfg, specs[0])).ok());
    // Simulate a SIGKILL mid-append: half a record, no newline.
    std::ofstream out(path_, std::ios::app);
    out << "job 1 d=00000000";
    out.close();

    Expected<JournalData> data = readJournal(path_);
    ASSERT_TRUE(data.ok()) << data.error().text();
    EXPECT_EQ(data.value().entries.size(), 1u);
    EXPECT_EQ(data.value().dropped_lines, 1u);
}

TEST_F(JournalTest, CorruptRecordIsDropped)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    JournalWriter w;
    ASSERT_TRUE(w.open(path_, 1, specs.size(), false).ok());
    ASSERT_TRUE(w.append(0, oneOutput(tcfg, specs[0])).ok());
    ASSERT_TRUE(w.append(1, oneOutput(tcfg, specs[1])).ok());

    // Flip one payload byte of the job-0 line: its digest no longer
    // matches, so only job 1 survives.
    std::ifstream in(path_);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::size_t at = text.find("job 0");
    ASSERT_NE(at, std::string::npos);
    text[text.find(' ', at + 10) + 1] ^= 1;
    std::ofstream out(path_, std::ios::trunc);
    out << text;
    out.close();

    Expected<JournalData> data = readJournal(path_);
    ASSERT_TRUE(data.ok()) << data.error().text();
    EXPECT_EQ(data.value().entries.count(0), 0u);
    EXPECT_EQ(data.value().entries.count(1), 1u);
    EXPECT_GE(data.value().dropped_lines, 1u);
}

TEST_F(JournalTest, MissingFileIsAnError)
{
    Expected<JournalData> data = readJournal(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code(), ErrorCode::Io);
}

TEST_F(JournalTest, MissingHeaderIsAnError)
{
    std::ofstream out(path_);
    out << "not a journal\n";
    out.close();
    Expected<JournalData> data = readJournal(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code(), ErrorCode::Data);
}

TEST_F(JournalTest, CancelledSweepResumesBitIdentically)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    // Reference: a plain, uninterrupted runTrace() loop.
    std::vector<sim::RunOutput> want;
    for (const sim::RunSpec &spec : specs)
        want.push_back(oneOutput(tcfg, spec));

    // Phase 1: cancel after one completed job, journaling.
    CancelToken token;
    FaultPlan plan;
    plan.cancel_after = 1;
    FaultInjector inject(plan, &token);
    SweepOptions opts1;
    opts1.jobs = 1; // deterministic cancel point
    opts1.inject = &inject;
    opts1.cancel = &token;
    opts1.journal_path = path_;
    opts1.spec_hash = hash;
    SweepResult first =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts1);
    EXPECT_TRUE(first.interrupted);
    EXPECT_EQ(first.cancelled(), specs.size() - 1);

    // Phase 2: resume. Restored slots come from the journal, the
    // rest run now; the merge must match the clean run bit for bit.
    SweepOptions opts2;
    opts2.jobs = 2;
    opts2.resume_path = path_;
    opts2.spec_hash = hash;
    SweepResult second =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts2);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.resumed, 1u);
    ASSERT_EQ(second.jobs.size(), specs.size());
    EXPECT_TRUE(second.jobs[0].from_journal);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(second.jobs[i].ok());
        EXPECT_EQ(encodeRunOutput(second.jobs[i].output),
                  encodeRunOutput(want[i]))
            << "slot " << i;
    }
}

TEST_F(JournalTest, ResumeRejectsASpecHashMismatch)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    JournalWriter w;
    ASSERT_TRUE(w.open(path_, 0xdead, specs.size(), false).ok());
    ASSERT_TRUE(w.append(0, oneOutput(tcfg, specs[0])).ok());

    SweepOptions opts;
    opts.jobs = 1;
    opts.resume_path = path_;
    opts.spec_hash = 0xbeef; // not what the journal was stamped with
    EXPECT_THROW(runSweepChecked(specs, atumTraceFactory(tcfg), opts),
                 ErrorException);
}

TEST_F(JournalTest, SigintDrainsAndCheckpoints)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    installSigintHandler();
    clearSigintForTests();
    std::raise(SIGINT); // "the user hit ^C before the sweep ran"

    CancelToken token;
    token.watchSigint();
    EXPECT_TRUE(token.cancelled());

    SweepOptions opts;
    opts.jobs = 1;
    opts.cancel = &token;
    opts.journal_path = path_;
    opts.spec_hash = hash;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);
    clearSigintForTests();

    // Everything was cancelled before starting, cleanly.
    EXPECT_TRUE(run.interrupted);
    EXPECT_EQ(run.cancelled(), specs.size());

    // The journal is still a valid (empty) checkpoint, so a resume
    // runs the whole sweep and matches the clean result.
    SweepOptions opts2;
    opts2.jobs = 1;
    opts2.resume_path = path_;
    opts2.spec_hash = hash;
    SweepResult again =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts2);
    EXPECT_EQ(again.resumed, 0u);
    EXPECT_TRUE(again.allOk());
}

} // namespace
} // namespace exec
} // namespace assoc
