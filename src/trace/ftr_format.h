/**
 * @file
 * On-disk layout of the framed trace (ftr) format: pure, allocation-
 * light encode/decode helpers shared by the writer (ftr_writer.h),
 * the recoverable reader (ftr_reader.h), and the trace_pack tool.
 *
 * An ftr file is engineered to survive damage. It is a 32-byte file
 * header followed by self-contained *frames* — each one a 24-byte
 * frame header (sync magic, absolute start record index, record
 * count, payload byte length, header CRC32C), a delta+varint-encoded
 * payload, and a payload CRC32C — and ends with a seekable frame
 * index (footer) that carries its own checksum plus an 8-byte
 * trailer locating it from the end of the file. Every field a reader
 * trusts is covered by a CRC, every frame restates its absolute
 * position in the stream, and the delta coder resets per frame, so a
 * reader that lands on any intact frame header can decode from there
 * without upstream context. That is what makes resync-after-
 * corruption and torn-footer index rebuilds possible (see
 * docs/TRACES.md for the byte-level specification).
 *
 * Decoders here never trust a length or count from the wire without
 * bounds-checking it first, and return false (or a structured Error)
 * on anything malformed — corruption is an expected input, not an
 * exceptional one.
 */

#ifndef ASSOC_TRACE_FTR_FORMAT_H
#define ASSOC_TRACE_FTR_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/memref.h"
#include "util/error.h"

namespace assoc {
namespace trace {
namespace ftr {

/** "ASF1" — file header magic (all constants little-endian). */
constexpr std::uint32_t kFileMagic =
    0x41u | (0x53u << 8) | (0x46u << 16) | (0x31u << 24);
/** "ASFr" — frame sync magic, scanned for during resync. */
constexpr std::uint32_t kFrameMagic =
    0x41u | (0x53u << 8) | (0x46u << 16) | (0x72u << 24);
/** "ASFi" — footer (frame index) block magic. */
constexpr std::uint32_t kFooterMagic =
    0x41u | (0x53u << 8) | (0x46u << 16) | (0x69u << 24);
/** "ASFe" — end-of-file trailer magic. */
constexpr std::uint32_t kTrailerMagic =
    0x41u | (0x53u << 8) | (0x46u << 16) | (0x65u << 24);

constexpr std::uint32_t kVersion = 1;

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kFrameHeaderBytes = 24;
constexpr std::size_t kFrameCrcBytes = 4;  ///< payload CRC after payload
constexpr std::size_t kIndexEntryBytes = 16;
constexpr std::size_t kFooterFixedBytes = 24; ///< magic+counts+crc
constexpr std::size_t kTrailerBytes = 8;

/** Frame size used when the caller does not choose one. */
constexpr std::uint32_t kDefaultFrameRecords = 1u << 16;

/**
 * Defensive caps a decoder enforces before believing a frame header:
 * a corrupted count/length field must never drive a huge allocation
 * or a gigabyte read. Generous against real frames (the writer caps
 * frames at kMaxFrameRecords too).
 */
constexpr std::uint32_t kMaxFrameRecords = 1u << 22;
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/**
 * Most frames one footer can index: the trailer stores the block
 * length in 32 bits, so kFooterFixedBytes + n*kIndexEntryBytes must
 * fit a uint32_t or the trailer would point at garbage. The encoder
 * drops seek points past this count (sequential reads never need the
 * index; seeks past the last entry scan forward from it), decoders
 * reject anything claiming more, and the cap also bounds footer
 * memory on open.
 */
constexpr std::uint64_t kMaxFooterFrames =
    (0xFFFFFFFFull - kFooterFixedBytes) / kIndexEntryBytes;

// Little-endian field helpers (explicit bytes: endian-agnostic).

inline void
putU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
putU64(std::uint8_t *p, std::uint64_t v)
{
    putU32(p, static_cast<std::uint32_t>(v));
    putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t
getU64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

/** Decoded file header (the CRC-checked, trusted fields). */
struct FileHeader
{
    std::uint64_t total_records = 0;
    /** Writer's frame size; a sizing hint only, frames self-describe. */
    std::uint32_t frame_records = kDefaultFrameRecords;
};

/** Serialize @p h into @p out (exactly kHeaderBytes). */
void encodeFileHeader(std::uint8_t *out, const FileHeader &h);

/**
 * Validate and decode a file header from @p len bytes at @p p.
 * Structured Data error on short input, bad magic, unsupported
 * version, or CRC mismatch.
 */
Expected<FileHeader> decodeFileHeader(const std::uint8_t *p,
                                      std::size_t len);

/** Decoded frame header (trusted only after its CRC checks out). */
struct FrameHeader
{
    std::uint64_t start_index = 0; ///< absolute index of first record
    std::uint32_t record_count = 0;
    std::uint32_t payload_len = 0; ///< bytes, excluding payload CRC
};

/** Serialize @p h into @p out (exactly kFrameHeaderBytes). */
void encodeFrameHeader(std::uint8_t *out, const FrameHeader &h);

/**
 * Validate and decode a frame header from exactly kFrameHeaderBytes
 * at @p p: magic, CRC, and the defensive caps must all hold. Returns
 * false on anything off — corruption, not an error condition.
 */
bool decodeFrameHeader(const std::uint8_t *p, FrameHeader &out);

/**
 * Append the payload encoding of @p n records to @p out. The delta
 * coder starts from (addr 0, pid 0) — frames are self-contained.
 */
void encodeFramePayload(const MemRef *recs, std::size_t n,
                        std::vector<std::uint8_t> &out);

/**
 * Decode a frame payload of exactly @p len bytes into the
 * @p expect_records records at @p out. False unless exactly
 * @p expect_records decode and the input is consumed exactly — any
 * slack or overrun means the frame is corrupt despite a matching
 * CRC-sized read (what @p out then holds is unspecified).
 */
bool decodeFramePayload(const std::uint8_t *p, std::size_t len,
                        std::uint32_t expect_records, MemRef *out);

/** One frame's seek point. */
struct IndexEntry
{
    std::uint64_t offset = 0;      ///< frame header's file offset
    std::uint64_t start_index = 0; ///< its first record's index
};

/**
 * Append the footer block *and* the 8-byte trailer for @p index to
 * @p out. Written at the end of the file, after the last frame.
 * Only the first kMaxFooterFrames entries are indexed — any more
 * would overflow the trailer's 32-bit block length (the writer warns
 * when it drops seek points; the file stays fully streamable).
 */
void encodeFooter(const std::vector<IndexEntry> &index,
                  std::uint64_t total_records,
                  std::vector<std::uint8_t> &out);

/**
 * Validate and decode a footer block (without its trailer) from
 * exactly @p len bytes at @p p. False on bad magic, CRC mismatch, or
 * an entry count inconsistent with @p len.
 */
bool decodeFooter(const std::uint8_t *p, std::size_t len,
                  std::vector<IndexEntry> &index,
                  std::uint64_t &total_records);

} // namespace ftr
} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_FTR_FORMAT_H
