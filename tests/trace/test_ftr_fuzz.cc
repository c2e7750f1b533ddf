/**
 * @file
 * Randomized fuzz over the ftr frame decoders and the whole reader.
 *
 * Corruption is an expected input for this format, so the decode
 * layer is held to a fuzz contract rather than a happy path: on
 * arbitrary bytes and on bit-flipped valid encodings the decoders
 * must never crash, never read out of bounds (the CI ASan job runs
 * this suite), and never return success with inconsistent output;
 * the full reader must end every case either cleanly — with
 * streamed + skipped records exactly matching its CRC-verified
 * header total — or with a structured error, never a hang or a
 * silent short count.
 *
 * Everything is a pure function of (seed, case index). A failure
 * prints the ASSOC_FTR_FUZZ_SEED / ASSOC_FTR_FUZZ_INDEX repro pair;
 * ASSOC_FTR_FUZZ_CASES trims or extends the default 10000 cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "trace/ftr_format.h"
#include "trace/ftr_reader.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace assoc {
namespace trace {
namespace {

std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *s = std::getenv(name);
    return s ? std::strtoull(s, nullptr, 0) : def;
}

std::vector<MemRef>
randomRecords(Pcg32 &rng, std::size_t n)
{
    std::vector<MemRef> recs(n);
    Addr addr = rng.next();
    for (MemRef &r : recs) {
        addr += rng.below(512) - 200;
        r.addr = addr;
        r.type = static_cast<RefType>(rng.below(4));
        r.pid = static_cast<std::uint8_t>(rng.below(8));
    }
    return recs;
}

void
flipBits(Pcg32 &rng, std::vector<std::uint8_t> &bytes, unsigned flips)
{
    for (unsigned i = 0; i < flips && !bytes.empty(); ++i)
        bytes[rng.below(static_cast<std::uint32_t>(bytes.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
}

/** A complete, valid ftr file image built in memory. */
std::vector<std::uint8_t>
buildFile(Pcg32 &rng, const std::vector<MemRef> &recs,
          std::uint32_t frame_records)
{
    std::vector<std::uint8_t> file(ftr::kHeaderBytes);
    ftr::FileHeader fh;
    fh.total_records = recs.size();
    fh.frame_records = frame_records;
    ftr::encodeFileHeader(file.data(), fh);

    std::vector<ftr::IndexEntry> index;
    std::vector<std::uint8_t> payload;
    for (std::size_t at = 0; at < recs.size();) {
        std::size_t n =
            std::min<std::size_t>(frame_records, recs.size() - at);
        payload.clear();
        ftr::encodeFramePayload(recs.data() + at, n, payload);
        ftr::FrameHeader hdr;
        hdr.start_index = at;
        hdr.record_count = static_cast<std::uint32_t>(n);
        hdr.payload_len = static_cast<std::uint32_t>(payload.size());
        index.push_back({file.size(), at});
        std::uint8_t raw[ftr::kFrameHeaderBytes];
        ftr::encodeFrameHeader(raw, hdr);
        file.insert(file.end(), raw, raw + ftr::kFrameHeaderBytes);
        file.insert(file.end(), payload.begin(), payload.end());
        std::uint8_t crc[4];
        ftr::putU32(crc, crc32c(payload.data(), payload.size()));
        file.insert(file.end(), crc, crc + 4);
        at += n;
    }
    ftr::encodeFooter(index, recs.size(), file);
    (void)rng;
    return file;
}

/** Arbitrary bytes through every decoder: no crash, no overrun,
 *  no inconsistent success. */
void
fuzzDecodersOnGarbage(Pcg32 &rng)
{
    std::vector<std::uint8_t> bytes(rng.below(200));
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.next());
    // Occasionally seed a real magic so the CRC check is reached.
    if (!bytes.empty() && rng.below(2) == 0) {
        std::uint32_t magics[3] = {ftr::kFileMagic, ftr::kFrameMagic,
                                   ftr::kFooterMagic};
        std::uint8_t raw[4];
        ftr::putU32(raw, magics[rng.below(3)]);
        for (std::size_t i = 0; i < 4 && i < bytes.size(); ++i)
            bytes[i] = raw[i];
    }

    Expected<ftr::FileHeader> fh =
        ftr::decodeFileHeader(bytes.data(), bytes.size());
    if (!fh.ok()) {
        ASSERT_FALSE(fh.error().text().empty());
    }

    if (bytes.size() >= ftr::kFrameHeaderBytes) {
        ftr::FrameHeader hdr;
        if (ftr::decodeFrameHeader(bytes.data(), hdr)) {
            ASSERT_LE(hdr.record_count, ftr::kMaxFrameRecords);
            ASSERT_LE(hdr.payload_len, ftr::kMaxFramePayload);
        }
    }

    std::uint32_t expect = rng.below(16);
    std::vector<MemRef> out(expect);
    ftr::decodeFramePayload(bytes.data(), bytes.size(), expect,
                            out.data());

    std::vector<ftr::IndexEntry> index;
    std::uint64_t total = 0;
    ftr::decodeFooter(bytes.data(), bytes.size(), index, total);
}

/** Bit-flipped valid payloads: reject or decode consistently. */
void
fuzzMutatedPayload(Pcg32 &rng)
{
    std::vector<MemRef> recs = randomRecords(rng, 1 + rng.below(64));
    std::vector<std::uint8_t> payload;
    ftr::encodeFramePayload(recs.data(), recs.size(), payload);

    std::vector<std::uint8_t> bent = payload;
    flipBits(rng, bent, 1 + rng.below(3));
    // Sometimes also clip the tail: a torn write mid-payload.
    if (rng.below(4) == 0)
        bent.resize(rng.below(
            static_cast<std::uint32_t>(bent.size() + 1)));

    std::vector<MemRef> out(recs.size());
    ftr::decodeFramePayload(bent.data(), bent.size(),
                            static_cast<std::uint32_t>(recs.size()),
                            out.data());

    // The pristine payload must always decode to the input.
    ASSERT_TRUE(ftr::decodeFramePayload(
        payload.data(), payload.size(),
        static_cast<std::uint32_t>(recs.size()), out.data()));
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_EQ(out[i], recs[i]);
}

/** Bit-flipped valid footers: reject or stay self-consistent. */
void
fuzzMutatedFooter(Pcg32 &rng)
{
    std::vector<ftr::IndexEntry> index;
    std::uint64_t off = ftr::kHeaderBytes;
    std::uint64_t at = 0;
    unsigned frames = rng.below(20);
    for (unsigned i = 0; i < frames; ++i) {
        index.push_back({off, at});
        off += ftr::kFrameHeaderBytes + 100 + rng.below(4000);
        at += 1 + rng.below(1000);
    }
    std::vector<std::uint8_t> bytes;
    ftr::encodeFooter(index, at, bytes);
    // Drop the 8-byte trailer; decodeFooter sees the block only.
    bytes.resize(bytes.size() - ftr::kTrailerBytes);

    std::vector<std::uint8_t> bent = bytes;
    flipBits(rng, bent, 1 + rng.below(3));
    std::vector<ftr::IndexEntry> got;
    std::uint64_t total = 0;
    if (ftr::decodeFooter(bent.data(), bent.size(), got, total)) {
        ASSERT_EQ(got.size(), index.size());
    }

    got.clear();
    ASSERT_TRUE(
        ftr::decodeFooter(bytes.data(), bytes.size(), got, total));
    ASSERT_EQ(got.size(), index.size());
    ASSERT_EQ(total, at);
}

/** Whole-reader drain over a mutated file image: terminate with
 *  exact accounting or a structured error, never neither. */
void
fuzzWholeReader(Pcg32 &rng)
{
    std::uint32_t frame_records = 1 + rng.below(96);
    std::vector<MemRef> recs =
        randomRecords(rng, rng.below(1500));
    std::vector<std::uint8_t> file =
        buildFile(rng, recs, frame_records);

    std::vector<std::uint8_t> bent = file;
    flipBits(rng, bent, 1 + rng.below(3));
    if (rng.below(8) == 0)
        bent.resize(rng.below(
            static_cast<std::uint32_t>(bent.size() + 1)));

    ErrorPolicy policy;
    policy.mode = ErrorMode::Skip;
    policy.max_skips = 100;
    auto in = std::make_unique<std::istringstream>(std::string(
        reinterpret_cast<const char *>(bent.data()), bent.size()));
    FtrTraceSource src(std::move(in), "fuzz.ftr", policy);

    std::uint64_t streamed = 0;
    MemRef r;
    while (src.next(r))
        ++streamed;

    if (src.failed()) {
        ASSERT_NE(src.error().code(), ErrorCode::None);
        ASSERT_FALSE(src.error().text().empty());
    } else {
        // Clean end: the CRC-verified header total is fully
        // accounted for — delivered plus explicitly skipped.
        ASSERT_EQ(streamed + src.skippedRecords(),
                  src.totalRecords());
        ASSERT_LE(src.damageEvents(), policy.max_skips);
    }
}

TEST(FtrFuzz, DecodersSurviveArbitraryCorruption)
{
    const std::uint64_t seed =
        envU64("ASSOC_FTR_FUZZ_SEED", 0x66747231ull);
    const std::uint64_t cases =
        envU64("ASSOC_FTR_FUZZ_CASES", 10000);
    const std::uint64_t only =
        envU64("ASSOC_FTR_FUZZ_INDEX", ~0ull);

    for (std::uint64_t i = 0; i < cases; ++i) {
        if (only != ~0ull && i != only)
            continue;
        Pcg32 rng(seed, i);
        switch (rng.below(4)) {
          case 0:
            fuzzDecodersOnGarbage(rng);
            break;
          case 1:
            fuzzMutatedPayload(rng);
            break;
          case 2:
            fuzzMutatedFooter(rng);
            break;
          default:
            fuzzWholeReader(rng);
            break;
        }
        if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << "repro: ASSOC_FTR_FUZZ_SEED=" << seed
                          << " ASSOC_FTR_FUZZ_INDEX=" << i;
            return;
        }
    }
}

} // namespace
} // namespace trace
} // namespace assoc
