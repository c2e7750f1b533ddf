/**
 * @file
 * Framed-trace (ftr) round-trip and recovery tests.
 *
 * The format's whole reason to exist is surviving damage, so beyond
 * the pack -> replay property tests (bit-identical streams across
 * frame sizes from 1 to 64Ki) this suite holds
 * the reader to its documented recovery contract for each corruption
 * shape: bit flips in frame headers and payloads resync with *exact*
 * skip accounting, torn-off footers rebuild the index by scan with
 * zero record loss, torn mid-frame tails deliver the exact prefix,
 * and hard IO errors are never mistaken for end-of-file no matter
 * the ErrorPolicy. Budgets and cancellation ride the same machinery
 * and are pinned here too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/ftr_format.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"
#include "trace/trace_file.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace assoc {
namespace trace {
namespace {

class FtrIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs every case as its own process, concurrently:
        // the path must be unique per test, not just per binary.
        path_ = ::testing::TempDir() + "ftr_io_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".ftr";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

/** Deterministic records with small deltas, jumps, and flushes —
 *  the mix the delta+varint payload coder actually sees. */
std::vector<MemRef>
makeRecords(std::size_t n, std::uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<MemRef> recs;
    recs.reserve(n);
    Addr addr = 0x1000;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(8)) {
          case 0:
            addr = rng.next(); // far jump (large delta)
            break;
          case 1:
            addr -= rng.below(256); // negative delta
            break;
          default:
            addr += rng.below(64); // the common small stride
            break;
        }
        MemRef r;
        r.addr = addr;
        r.type = (rng.below(97) == 0)
                     ? RefType::Flush
                     : static_cast<RefType>(rng.below(3));
        r.pid = static_cast<std::uint8_t>(rng.below(5));
        recs.push_back(r);
    }
    return recs;
}

std::uint64_t
writeFile(const std::vector<MemRef> &recs, const std::string &path,
          std::uint32_t frame_records)
{
    VectorTraceSource src(recs);
    FtrWriter::Options opt;
    opt.frame_records = frame_records;
    Expected<std::uint64_t> n = writeFtr(src, path, opt);
    EXPECT_TRUE(n.ok()) << n.error().text();
    return n.ok() ? n.value() : 0;
}

std::vector<MemRef>
drain(TraceSource &src)
{
    std::vector<MemRef> got;
    MemRef r;
    while (src.next(r))
        got.push_back(r);
    return got;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
rewrite(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::string bytes = slurp(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    rewrite(path, bytes);
}

void
truncateTo(const std::string &path, std::uint64_t size)
{
    std::string bytes = slurp(path);
    ASSERT_LE(size, bytes.size());
    bytes.resize(size);
    rewrite(path, bytes);
}

/** Tear off footer + trailer of a *finished* file: a damaged index
 *  whose header still carries the patched record total. The true
 *  crash-before-finish() shape also has a ZERO header total — see
 *  zeroHeaderTotal() and the CrashBeforeFinish tests. */
void
tearFooter(const std::string &path)
{
    std::string bytes = slurp(path);
    ASSERT_GE(bytes.size(), ftr::kTrailerBytes);
    const std::uint8_t *tr = reinterpret_cast<const std::uint8_t *>(
        bytes.data() + bytes.size() - ftr::kTrailerBytes);
    ASSERT_EQ(ftr::getU32(tr + 4), ftr::kTrailerMagic);
    std::uint64_t cut = ftr::getU32(tr) + ftr::kTrailerBytes;
    ASSERT_LT(cut, bytes.size());
    bytes.resize(bytes.size() - cut);
    rewrite(path, bytes);
}

/** Rewrite the header with total_records = 0, re-CRC'd — what the
 *  writer's open() wrote before any finish() could patch it. */
void
zeroHeaderTotal(const std::string &path)
{
    std::string bytes = slurp(path);
    ASSERT_GE(bytes.size(), ftr::kHeaderBytes);
    Expected<ftr::FileHeader> h = ftr::decodeFileHeader(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        bytes.size());
    ASSERT_TRUE(h.ok()) << h.error().text();
    ftr::FileHeader zeroed = h.take();
    zeroed.total_records = 0;
    ftr::encodeFileHeader(
        reinterpret_cast<std::uint8_t *>(&bytes[0]), zeroed);
    rewrite(path, bytes);
}

ErrorPolicy
skipPolicy(std::uint64_t max_skips = 100)
{
    ErrorPolicy p;
    p.mode = ErrorMode::Skip;
    p.max_skips = max_skips;
    return p;
}

/** Frame boundaries of a pristine file, from its verified index. */
std::vector<ftr::IndexEntry>
indexOf(const std::string &path)
{
    FtrTraceSource src(path);
    EXPECT_FALSE(src.failed()) << src.error().text();
    return src.frameIndex();
}

TEST_F(FtrIoTest, RoundTripsAcrossFrameSizes)
{
    const std::vector<MemRef> recs = makeRecords(5000, 0xF7A01);
    for (std::uint32_t fr : {1u, 3u, 64u, 5000u, 65536u}) {
        ASSERT_EQ(writeFile(recs, path_, fr), recs.size());
        FtrTraceSource src(path_);
        ASSERT_FALSE(src.failed()) << src.error().text();
        EXPECT_EQ(src.totalRecords(), recs.size());
        EXPECT_EQ(drain(src), recs) << "frame_records=" << fr;
        EXPECT_FALSE(src.failed()) << src.error().text();
        EXPECT_EQ(src.skippedRecords(), 0u);
        EXPECT_EQ(src.damageEvents(), 0u);
        // reset() replays the identical stream.
        src.reset();
        EXPECT_EQ(drain(src), recs);
    }
}

TEST_F(FtrIoTest, EmptyTraceRoundTrips)
{
    ASSERT_EQ(writeFile({}, path_, 64), 0u);
    FtrTraceSource src(path_);
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(src.totalRecords(), 0u);
    MemRef r;
    EXPECT_FALSE(src.next(r));
    EXPECT_FALSE(src.failed());
}

TEST_F(FtrIoTest, PartialLastFrameAndIndexShape)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A02);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    FtrTraceSource src(path_);
    ASSERT_FALSE(src.failed());
    // 15 full frames of 64 plus a 40-record tail.
    ASSERT_EQ(src.frameIndex().size(), 16u);
    for (std::size_t i = 0; i < src.frameIndex().size(); ++i)
        EXPECT_EQ(src.frameIndex()[i].start_index, i * 64);
    EXPECT_EQ(src.frameRecords(), 64u);
    EXPECT_EQ(drain(src), recs);
}

TEST_F(FtrIoTest, NextBatchMatchesNext)
{
    const std::vector<MemRef> recs = makeRecords(3000, 0xF7A03);
    ASSERT_EQ(writeFile(recs, path_, 256), recs.size());
    FtrTraceSource src(path_);
    std::vector<MemRef> got;
    MemRef buf[97]; // deliberately straddles frame boundaries
    for (;;) {
        std::size_t n = src.nextBatch(buf, 97);
        got.insert(got.end(), buf, buf + n);
        if (n < 97)
            break;
    }
    EXPECT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(got, recs);
}

TEST_F(FtrIoTest, RejectsDamagedFileHeaders)
{
    const std::vector<MemRef> recs = makeRecords(100, 0xF7A04);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    const std::string clean = slurp(path_);

    // Every kind of header damage must fail even in Skip mode: the
    // header's record total is what makes skip accounting exact.
    for (std::uint64_t off : {0ull, 4ull, 8ull, 28ull}) {
        rewrite(path_, clean);
        flipByte(path_, off);
        FtrTraceSource src(path_, skipPolicy());
        EXPECT_TRUE(src.failed()) << "header flip at " << off;
        EXPECT_EQ(src.error().code(), ErrorCode::Data);
        MemRef r;
        EXPECT_FALSE(src.next(r));
    }
    // Too short to even hold a header.
    rewrite(path_, clean.substr(0, ftr::kHeaderBytes - 1));
    FtrTraceSource shorty(path_, skipPolicy());
    EXPECT_TRUE(shorty.failed());
    EXPECT_EQ(shorty.error().code(), ErrorCode::Data);
}

TEST_F(FtrIoTest, FailFastStopsOnACorruptFrame)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A05);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    std::vector<ftr::IndexEntry> index = indexOf(path_);
    ASSERT_GT(index.size(), 3u);
    // One bit into the middle frame's payload.
    flipByte(path_,
             index[index.size() / 2].offset + ftr::kFrameHeaderBytes +
                 2);

    for (ErrorMode mode : {ErrorMode::FailFast, ErrorMode::Strict}) {
        ErrorPolicy policy;
        policy.mode = mode;
        FtrTraceSource src(path_, policy);
        ASSERT_FALSE(src.failed()); // open is fine; the frame isn't
        std::vector<MemRef> got = drain(src);
        EXPECT_TRUE(src.failed())
            << "bit-flipped payload passed CRC validation";
        EXPECT_EQ(src.error().code(), ErrorCode::Data);
        EXPECT_LT(got.size(), recs.size());
        // Everything delivered before the stop is still pristine.
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], recs[i]) << i;
    }
}

TEST_F(FtrIoTest, SkipResyncsWithExactAccounting)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A06);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    std::vector<ftr::IndexEntry> index = indexOf(path_);
    ASSERT_GT(index.size(), 4u);
    const std::size_t victim = index.size() / 2;

    // Damage the payload, then separately the frame header: the
    // resync scan must recover identically from both.
    for (std::uint64_t within : {ftr::kFrameHeaderBytes + 3,
                                 std::size_t(6)}) {
        ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
        flipByte(path_, index[victim].offset + within);
        FtrTraceSource src(path_, skipPolicy());
        ASSERT_FALSE(src.failed());
        std::vector<MemRef> got = drain(src);
        EXPECT_FALSE(src.failed()) << src.error().text();
        // Exactly the victim frame's 64 records are lost, as ONE
        // damage event, and the delivered stream is the original
        // minus that frame — nothing resequenced.
        EXPECT_EQ(src.skippedRecords(), 64u);
        EXPECT_EQ(src.damageEvents(), 1u);
        std::vector<MemRef> want(recs.begin(),
                                 recs.begin() +
                                     static_cast<long>(victim * 64));
        want.insert(want.end(),
                    recs.begin() + static_cast<long>((victim + 1) * 64),
                    recs.end());
        EXPECT_EQ(got, want);
    }
}

TEST_F(FtrIoTest, SkipCapBoundsDamageEventsNotRecords)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A07);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    std::vector<ftr::IndexEntry> index = indexOf(path_);
    ASSERT_GT(index.size(), 3u);
    flipByte(path_, index[1].offset + ftr::kFrameHeaderBytes + 1);

    // One damaged region = one event: a cap of 1 tolerates it even
    // though 64 records were lost...
    {
        FtrTraceSource src(path_, skipPolicy(1));
        drain(src);
        EXPECT_FALSE(src.failed()) << src.error().text();
        EXPECT_EQ(src.skippedRecords(), 64u);
    }
    // ...and a cap of 0 means any damage is fatal.
    {
        FtrTraceSource src(path_, skipPolicy(0));
        drain(src);
        EXPECT_TRUE(src.failed());
        EXPECT_EQ(src.error().code(), ErrorCode::Data);
    }
}

TEST_F(FtrIoTest, TornFooterRebuildsTheIndexWithNoRecordLoss)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A08);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    tearFooter(path_);

    // FailFast reports the missing index...
    {
        FtrTraceSource src(path_);
        EXPECT_TRUE(src.failed());
        EXPECT_EQ(src.error().code(), ErrorCode::Data);
    }
    // ...Skip rebuilds it by scanning frame headers; every record
    // is still there, bit-identical, and indexed.
    FtrTraceSource src(path_, skipPolicy());
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_TRUE(src.indexRebuilt());
    EXPECT_EQ(src.frameIndex().size(), 16u);
    EXPECT_EQ(drain(src), recs);
    EXPECT_EQ(src.skippedRecords(), 0u);
    EXPECT_EQ(src.damageEvents(), 0u);
}

TEST_F(FtrIoTest, CrashBeforeFinishRecoversEveryFlushedFrame)
{
    const std::vector<MemRef> recs = makeRecords(640, 0xF7A11);
    {
        // A writer killed before finish(): 10 full frames flushed,
        // no footer, header total still the zero written at open.
        FtrWriter::Options opt;
        opt.frame_records = 64;
        FtrWriter w(path_, opt);
        for (const MemRef &r : recs)
            w.add(r);
        ASSERT_FALSE(w.error().failed()) << w.error().text();
    }
    // FailFast refuses the unfinished file...
    {
        FtrTraceSource src(path_);
        EXPECT_TRUE(src.failed());
        EXPECT_EQ(src.error().code(), ErrorCode::Data);
    }
    // ...Skip rebuilds the index and derives the record total from
    // the recovered frames: zero record loss, zero damage counted.
    FtrTraceSource src(path_, skipPolicy());
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_TRUE(src.indexRebuilt());
    EXPECT_EQ(src.totalRecords(), recs.size());
    EXPECT_EQ(src.frameIndex().size(), 10u);
    EXPECT_EQ(drain(src), recs);
    EXPECT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(src.skippedRecords(), 0u);
    EXPECT_EQ(src.damageEvents(), 0u);
}

TEST_F(FtrIoTest, CrashLosesOnlyTheUnflushedTail)
{
    // 650 records at 64/frame: 10 frames (640 records) hit the
    // disk; 10 died in the writer's buffer. Those never existed on
    // disk, so the derived total is 640 and nothing counts as
    // skipped — the reader cannot know about records that were
    // never written.
    const std::vector<MemRef> recs = makeRecords(650, 0xF7A12);
    {
        FtrWriter::Options opt;
        opt.frame_records = 64;
        FtrWriter w(path_, opt);
        for (const MemRef &r : recs)
            w.add(r);
    }
    FtrTraceSource src(path_, skipPolicy());
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(src.totalRecords(), 640u);
    std::vector<MemRef> got = drain(src);
    EXPECT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(got, std::vector<MemRef>(recs.begin(),
                                       recs.begin() + 640));
    EXPECT_EQ(src.skippedRecords(), 0u);
    EXPECT_EQ(src.damageEvents(), 0u);
}

TEST_F(FtrIoTest, CrashBeforeAnyFrameIsAnEmptyTrace)
{
    {
        FtrWriter w(path_); // killed before a single record
    }
    FtrTraceSource src(path_, skipPolicy());
    EXPECT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(src.totalRecords(), 0u);
    MemRef r;
    EXPECT_FALSE(src.next(r));
    EXPECT_FALSE(src.failed());
    EXPECT_EQ(src.skippedRecords(), 0u);
}

TEST_F(FtrIoTest, CrashShapeStillResyncsAroundDamage)
{
    // The crash fixture built the other way (finished file, footer
    // torn, header total re-zeroed and re-CRC'd), plus a damaged
    // frame: derived-total accounting and resync must compose.
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A13);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    std::vector<ftr::IndexEntry> index = indexOf(path_);
    ASSERT_EQ(index.size(), 16u);
    tearFooter(path_);
    zeroHeaderTotal(path_);
    const std::size_t victim = 4;
    flipByte(path_, index[victim].offset + ftr::kFrameHeaderBytes + 2);

    FtrTraceSource src(path_, skipPolicy());
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_TRUE(src.indexRebuilt());
    // The damaged byte is in the payload, so the scan (which trusts
    // the CRC-valid frame *headers*) still sees all 16 frames and
    // derives the full total.
    EXPECT_EQ(src.totalRecords(), recs.size());
    std::vector<MemRef> got = drain(src);
    EXPECT_FALSE(src.failed()) << src.error().text();
    EXPECT_EQ(src.skippedRecords(), 64u);
    EXPECT_EQ(src.damageEvents(), 1u);
    std::vector<MemRef> want(recs.begin(),
                             recs.begin() +
                                 static_cast<long>(victim * 64));
    want.insert(want.end(),
                recs.begin() + static_cast<long>((victim + 1) * 64),
                recs.end());
    EXPECT_EQ(got, want);
}

TEST_F(FtrIoTest, TornTailDeliversTheExactPrefix)
{
    const std::vector<MemRef> recs = makeRecords(1000, 0xF7A09);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    std::vector<ftr::IndexEntry> index = indexOf(path_);
    ASSERT_EQ(index.size(), 16u);
    // Cut into the 11th frame's payload: frames 0..9 survive.
    truncateTo(path_, index[10].offset + ftr::kFrameHeaderBytes + 7);

    {
        ErrorPolicy policy; // FailFast
        FtrTraceSource src(path_, policy);
        EXPECT_TRUE(src.failed()); // the footer went with the tail
    }
    FtrTraceSource src(path_, skipPolicy());
    ASSERT_FALSE(src.failed()) << src.error().text();
    EXPECT_TRUE(src.indexRebuilt());
    std::vector<MemRef> got = drain(src);
    EXPECT_FALSE(src.failed()) << src.error().text();
    ASSERT_EQ(got.size(), 640u);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], recs[i]) << i;
    // The torn tail is one damage event; the loss is exact because
    // the CRC-verified header still says 1000 records existed.
    EXPECT_EQ(src.skippedRecords(), recs.size() - 640u);
    EXPECT_EQ(src.damageEvents(), 1u);
}

TEST_F(FtrIoTest, MemBudgetBoundsDecodedFrames)
{
    const std::vector<MemRef> recs = makeRecords(20000, 0xF7A0C);
    ASSERT_EQ(writeFile(recs, path_, 4096), recs.size());

    // A budget too small for even one decoded frame is a hard,
    // structured Budget failure — never an OOM, never skippable.
    FtrTraceSource starved(path_, skipPolicy());
    MemBudget tiny(1024);
    starved.setMemBudget(&tiny);
    EXPECT_TRUE(drain(starved).empty());
    EXPECT_TRUE(starved.failed());
    EXPECT_EQ(starved.error().code(), ErrorCode::Budget);
    // An adequate budget streams the whole trace within bounds.
    FtrTraceSource src(path_);
    MemBudget roomy(8ull << 20);
    src.setMemBudget(&roomy);
    EXPECT_EQ(drain(src).size(), recs.size());
    EXPECT_FALSE(src.failed()) << src.error().text();
}

TEST_F(FtrIoTest, CancellationStopsTheStream)
{
    const std::vector<MemRef> recs = makeRecords(20000, 0xF7A0D);
    ASSERT_EQ(writeFile(recs, path_, 512), recs.size());
    FtrTraceSource src(path_);
    CancelToken token;
    token.cancel();
    src.setCancelToken(&token);
    std::vector<MemRef> got = drain(src);
    EXPECT_TRUE(src.failed());
    EXPECT_EQ(src.error().code(), ErrorCode::Cancelled);
    EXPECT_LT(got.size(), recs.size());
}

TEST_F(FtrIoTest, HardIoErrorsAreNeverSkippable)
{
    const std::vector<MemRef> recs = makeRecords(2000, 0xF7A0E);
    ASSERT_EQ(writeFile(recs, path_, 64), recs.size());
    IoFaultPlan plan;
    plan.io_error_at = 100; // mid-file EIO, well before the footer
    std::unique_ptr<TraceSource> src =
        openTraceFile(path_, skipPolicy(), plan);
    std::vector<MemRef> got;
    MemRef r;
    while (src->next(r))
        got.push_back(r);
    // Skip mode tolerates *data* damage; a failing device must
    // still surface as a hard error, never as silent truncation.
    EXPECT_TRUE(src->failed());
    EXPECT_EQ(src->error().code(), ErrorCode::Io);
}

TEST_F(FtrIoTest, OpenTraceFileSniffsFtrWithoutTheExtension)
{
    const std::vector<MemRef> recs = makeRecords(300, 0xF7A0F);
    const std::string noext = path_ + ".trace";
    ASSERT_EQ(writeFile(recs, noext, 64), recs.size());
    Expected<TraceFormat> fmt = detectTraceFormat(noext);
    ASSERT_TRUE(fmt.ok()) << fmt.error().text();
    EXPECT_EQ(fmt.value(), TraceFormat::Ftr);
    std::unique_ptr<TraceSource> src = openTraceFile(noext);
    std::vector<MemRef> got;
    MemRef r;
    while (src->next(r))
        got.push_back(r);
    EXPECT_FALSE(src->failed()) << src->error().text();
    EXPECT_EQ(got, recs);
    std::remove(noext.c_str());
}

TEST_F(FtrIoTest, WriterReportsUnwritablePaths)
{
    VectorTraceSource src(makeRecords(10, 0xF7A10));
    Expected<std::uint64_t> n =
        writeFtr(src, "/nonexistent-dir/out.ftr");
    EXPECT_FALSE(n.ok());
    EXPECT_EQ(n.error().code(), ErrorCode::Io);
}

} // namespace
} // namespace trace
} // namespace assoc
