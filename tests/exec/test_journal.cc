/**
 * @file
 * Checkpoint-journal tests: bit-exact encode/decode of RunOutputs
 * (every statistics member, energy events included), tolerant
 * journal reading (torn and corrupt lines, older payload versions),
 * spec-hash validation, and the headline resume property — a
 * cancelled sweep resumed from its journal merges to a result
 * bit-identical to the uninterrupted run, including across a SIGINT.
 */

#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exec/fault.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "util/fnv.h"

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

/**
 * @p out as a v2 payload, the version before every statistics member
 * was journaled: five ProbeStats members per scheme (no events, memo
 * hits or metered count) and a separate coherency count. Dropping
 * the trailing skips field gives the v1 layout.
 */
std::string
v2Payload(const sim::RunOutput &out)
{
    auto bits = [](double d) {
        return hex16(std::bit_cast<std::uint64_t>(d));
    };
    // A MeanAccum's raw sum, sum of squares and count.
    auto accum = [&](std::ostringstream &os, const MeanAccum &a) {
        forEachStat(a, [&](const char *, const auto &v, StatClass) {
            if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                         double>)
                os << " " << bits(v);
            else
                os << " " << v;
        });
    };
    std::ostringstream os;
    os << "v2 stats";
    forEachStat(out.stats, [&](const char *, std::uint64_t v,
                               StatClass) { os << " " << v; });
    os << " schemes " << out.probes.size();
    for (std::size_t i = 0; i < out.probes.size(); ++i) {
        const core::ProbeStats &p = out.probes[i];
        os << " ";
        for (unsigned char c : out.names[i])
            os << "0123456789abcdef"[c >> 4]
               << "0123456789abcdef"[c & 0xf];
        accum(os, p.read_in_hits);
        accum(os, p.read_in_misses);
        accum(os, p.write_backs);
        os << " " << p.alias_hits << " " << p.alias_wrong_way;
    }
    os << " f " << out.f.size();
    for (double v : out.f)
        os << " " << bits(v);
    os << " occ " << bits(out.mean_occupancy);
    os << " coh " << out.stats.coherency_invalidations;
    os << " skips " << out.skipped_records;
    return os.str();
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

TEST(JournalCodec, RoundTripKeepsEveryProbeStatsMember)
{
    // bench_energy's columns come from events, memo_hits and
    // metered: a job restored from the journal must carry them, not
    // zeros.
    sim::RunSpec spec = sweepSpecs()[1];
    core::SchemeSpec memo, predict;
    memo.kind = core::SchemeKind::WayMemo;
    predict.kind = core::SchemeKind::WayPredict;
    spec.schemes = {memo, predict, core::SchemeSpec::paperPartial(4)};
    sim::RunOutput out = oneOutput(smallTrace(), spec);
    Expected<sim::RunOutput> back =
        decodeRunOutput(encodeRunOutput(out));
    ASSERT_TRUE(back.ok()) << back.error().text();
    EXPECT_TRUE(identicalStats(back.value().stats, out.stats));
    ASSERT_EQ(back.value().probes.size(), out.probes.size());
    for (std::size_t i = 0; i < out.probes.size(); ++i) {
        const core::ProbeStats &got = back.value().probes[i];
        const core::ProbeStats &want = out.probes[i];
        EXPECT_TRUE(identicalStats(got, want)) << out.names[i];
        EXPECT_TRUE(identicalStats(got.events, want.events))
            << out.names[i];
        EXPECT_EQ(got.memo_hits, want.memo_hits) << out.names[i];
        EXPECT_EQ(got.metered, want.metered) << out.names[i];
        EXPECT_GT(got.metered, 0u) << out.names[i];
    }
    const std::vector<core::ProbeStats> &got = back.value().probes;
    EXPECT_GT(got[0].memo_hits, 0u);
    EXPECT_GT(got[0].events.memo_reads, 0u);
    EXPECT_GT(got[1].events.memo_reads, 0u);
    EXPECT_GT(got[2].events.field_reads, 0u);
    EXPECT_GT(got[2].events.tag_reads, 0u);
}

TEST(JournalCodec, OlderPayloadsDoNotDecode)
{
    // v1 and v2 payloads left counters out. Decoding them with zeros
    // would resume a job with a wrong result, so they are rejected
    // and the job runs again.
    sim::RunOutput out = oneOutput(smallTrace(), sweepSpecs()[0]);
    std::string v2 = v2Payload(out);
    EXPECT_FALSE(decodeRunOutput(v2).ok());
    std::string v1 = "v1" + v2.substr(2, v2.rfind(" skips ") - 2);
    EXPECT_FALSE(decodeRunOutput(v1).ok());
    // The current payload with its skips field torn off is corrupt.
    std::string v3 = encodeRunOutput(out);
    EXPECT_FALSE(decodeRunOutput(v3.substr(0, v3.rfind(" skips ")))
                     .ok());
}

TEST(JournalCodec, RejectsGarbage)
{
    EXPECT_FALSE(decodeRunOutput("").ok());
    EXPECT_FALSE(decodeRunOutput("v1 nonsense").ok());
    EXPECT_FALSE(decodeRunOutput("v3 stats 1 2 3").ok());
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

TEST_F(JournalTest, MalformedLinesAreDroppedAndBadMetaIsAnError)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();

    JournalWriter w;
    ASSERT_TRUE(w.open(path_, 1, specs.size(), false).ok());
    ASSERT_TRUE(w.append(0, oneOutput(tcfg, specs[0])).ok());
    ASSERT_TRUE(w.close().ok());
    {
        std::ofstream out(path_, std::ios::app);
        out << "job x d=00 v3\n"     // index is not a number
            << "job 1 00 v3\n"       // digest lacks its d=
            << "job 2 d=zz v3\n"     // digest is not hex
            << "job 3 d=00x v3\n"    // trailing junk after the digest
            << "jobs 4 d=00 v3\n";   // unknown line kind
    }
    Expected<JournalData> data = readJournal(path_);
    ASSERT_TRUE(data.ok()) << data.error().text();
    EXPECT_EQ(data.value().entries.size(), 1u);
    EXPECT_EQ(data.value().dropped_lines, 5u);

    std::ofstream bad(path_, std::ios::trunc);
    bad << "meta hash=xyz jobs=3\n";
    bad.close();
    Expected<JournalData> meta = readJournal(path_);
    ASSERT_FALSE(meta.ok());
    EXPECT_EQ(meta.error().code(), ErrorCode::Data);
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

TEST_F(JournalTest, ResumeOverV2LinesRerunsTheirJobs)
{
    trace::AtumLikeConfig tcfg = smallTrace();
    std::vector<sim::RunSpec> specs = sweepSpecs();
    std::uint64_t hash = hashSpecs(specs, tcfg.seed);

    std::vector<sim::RunOutput> want;
    for (const sim::RunSpec &spec : specs)
        want.push_back(oneOutput(tcfg, spec));

    // A journal an older build wrote: the right header, and one
    // digest-stamped v2 line per job.
    JournalWriter w;
    ASSERT_TRUE(w.open(path_, hash, specs.size(), false).ok());
    ASSERT_TRUE(w.close().ok());
    {
        std::ofstream out(path_, std::ios::app);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::string payload = v2Payload(want[i]);
            out << "job " << i << " d=" << hex16(fnvString(payload))
                << " " << payload << "\n";
        }
    }
    Expected<JournalData> old = readJournal(path_);
    ASSERT_TRUE(old.ok()) << old.error().text();
    EXPECT_TRUE(old.value().entries.empty());
    EXPECT_EQ(old.value().dropped_lines, specs.size());

    SweepOptions opts;
    opts.jobs = 2;
    opts.resume_path = path_;
    opts.spec_hash = hash;
    SweepResult run =
        runSweepChecked(specs, atumTraceFactory(tcfg), opts);
    EXPECT_EQ(run.resumed, 0u);
    ASSERT_EQ(run.jobs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(run.jobs[i].ok());
        EXPECT_FALSE(run.jobs[i].from_journal);
        EXPECT_EQ(encodeRunOutput(run.jobs[i].output),
                  encodeRunOutput(want[i]))
            << "slot " << i;
    }

    // The rerun appended v3 lines, which a later resume restores.
    Expected<JournalData> now = readJournal(path_);
    ASSERT_TRUE(now.ok()) << now.error().text();
    EXPECT_EQ(now.value().entries.size(), specs.size());
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
