#include "trace/ftr_format.h"

#include <algorithm>

#include "util/crc32c.h"
#include "util/varint.h"

namespace assoc {
namespace trace {
namespace ftr {

// File header: magic(4) version(4) total(8) frame_records(4)
// reserved(8) crc(4, over bytes [0,28)).

void
encodeFileHeader(std::uint8_t *out, const FileHeader &h)
{
    putU32(out, kFileMagic);
    putU32(out + 4, kVersion);
    putU64(out + 8, h.total_records);
    putU32(out + 16, h.frame_records);
    putU64(out + 20, 0); // reserved
    putU32(out + 28, crc32c(out, 28));
}

Expected<FileHeader>
decodeFileHeader(const std::uint8_t *p, std::size_t len)
{
    if (len < kHeaderBytes)
        return Error::data("file too short for an ftr header (" +
                           std::to_string(len) + " bytes, need " +
                           std::to_string(kHeaderBytes) + ")");
    if (getU32(p) != kFileMagic)
        return Error::data("bad ftr magic number");
    std::uint32_t version = getU32(p + 4);
    if (version != kVersion)
        return Error::data("ftr version " + std::to_string(version) +
                           "; this reader understands version " +
                           std::to_string(kVersion));
    if (getU32(p + 28) != crc32c(p, 28))
        return Error::data("ftr header checksum mismatch "
                           "(damaged header)");
    FileHeader h;
    h.total_records = getU64(p + 8);
    h.frame_records = getU32(p + 16);
    return h;
}

// Frame header: magic(4) start(8) count(4) payload_len(4)
// crc(4, over bytes [0,20)).

void
encodeFrameHeader(std::uint8_t *out, const FrameHeader &h)
{
    putU32(out, kFrameMagic);
    putU64(out + 4, h.start_index);
    putU32(out + 12, h.record_count);
    putU32(out + 16, h.payload_len);
    putU32(out + 20, crc32c(out, 20));
}

bool
decodeFrameHeader(const std::uint8_t *p, FrameHeader &out)
{
    if (getU32(p) != kFrameMagic)
        return false;
    if (getU32(p + 20) != crc32c(p, 20))
        return false;
    out.start_index = getU64(p + 4);
    out.record_count = getU32(p + 12);
    out.payload_len = getU32(p + 16);
    // The CRC matched, but stay defensive: a deliberately crafted
    // (or miraculously collided) header must not drive allocations.
    if (out.record_count > kMaxFrameRecords ||
        out.payload_len > kMaxFramePayload)
        return false;
    // Every record costs at least the meta byte; a count the payload
    // cannot possibly hold is structural damage.
    if (out.record_count > out.payload_len)
        return false;
    return true;
}

// Payload: per record one meta byte (type in bits 0-1, bit 2 set
// when a pid byte follows, bits 3-7 reserved zero), then the zigzag
// varint of the address delta from the previous record. The coder
// state resets per frame so any frame decodes standalone.

void
encodeFramePayload(const MemRef *recs, std::size_t n,
                   std::vector<std::uint8_t> &out)
{
    std::uint32_t prev_addr = 0;
    std::uint8_t prev_pid = 0;
    std::uint8_t varint[kMaxVarint32Bytes];
    for (std::size_t i = 0; i < n; ++i) {
        const MemRef &r = recs[i];
        std::uint8_t meta = static_cast<std::uint8_t>(r.type) & 0x3;
        if (r.pid != prev_pid)
            meta |= 0x4;
        out.push_back(meta);
        std::int32_t delta =
            static_cast<std::int32_t>(r.addr - prev_addr);
        std::size_t vn = putVarint32(varint, zigzagEncode32(delta));
        out.insert(out.end(), varint, varint + vn);
        if (r.pid != prev_pid) {
            out.push_back(r.pid);
            prev_pid = r.pid;
        }
        prev_addr = r.addr;
    }
}

bool
decodeFramePayload(const std::uint8_t *p, std::size_t len,
                   std::uint32_t expect_records, MemRef *out)
{
    std::uint32_t prev_addr = 0;
    std::uint8_t prev_pid = 0;
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < expect_records; ++i) {
        if (pos >= len)
            return false; // payload exhausted mid-record
        std::uint8_t meta = p[pos++];
        if ((meta & ~0x7u) != 0)
            return false; // reserved meta bits set
        std::uint32_t zz = 0;
        std::size_t vn = getVarint32(p + pos, len - pos, zz);
        if (vn == 0)
            return false; // truncated or over-long varint
        pos += vn;
        prev_addr += static_cast<std::uint32_t>(zigzagDecode32(zz));
        if (meta & 0x4) {
            if (pos >= len)
                return false;
            prev_pid = p[pos++];
        }
        out[i] = MemRef{prev_addr, static_cast<RefType>(meta & 0x3),
                        prev_pid};
    }
    return pos == len; // slack bytes mean a miscounted frame
}

// Footer block: magic(4) nframes(8) total(8) entries(16 each)
// crc(4, over everything before it); then the trailer:
// block_len(4) trailer magic(4). A reader finds the footer by
// reading the last 8 bytes, so the index survives as long as both
// the trailer and the block it points at are intact — otherwise the
// reader rebuilds the index by scanning frame headers.

// The trailer's block length is 32-bit; the entry cap must keep the
// block representable or the trailer would point at garbage.
static_assert(kFooterFixedBytes +
                      kMaxFooterFrames * kIndexEntryBytes <=
                  0xFFFFFFFFull,
              "footer block for kMaxFooterFrames entries must fit "
              "the trailer's 32-bit block length");

void
encodeFooter(const std::vector<IndexEntry> &index,
             std::uint64_t total_records,
             std::vector<std::uint8_t> &out)
{
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(index.size(), kMaxFooterFrames));
    std::size_t start = out.size();
    std::size_t block = kFooterFixedBytes -
                        4 + // crc appended after the entries
                        n * kIndexEntryBytes;
    out.resize(start + block + 4 + kTrailerBytes);
    std::uint8_t *p = out.data() + start;
    putU32(p, kFooterMagic);
    putU64(p + 4, n);
    putU64(p + 12, total_records);
    std::uint8_t *e = p + 20;
    for (std::size_t i = 0; i < n; ++i) {
        putU64(e, index[i].offset);
        putU64(e + 8, index[i].start_index);
        e += kIndexEntryBytes;
    }
    putU32(e, crc32c(p, static_cast<std::size_t>(e - p)));
    e += 4;
    std::size_t block_len = static_cast<std::size_t>(e - p);
    putU32(e, static_cast<std::uint32_t>(block_len));
    putU32(e + 4, kTrailerMagic);
}

bool
decodeFooter(const std::uint8_t *p, std::size_t len,
             std::vector<IndexEntry> &index,
             std::uint64_t &total_records)
{
    if (len < kFooterFixedBytes)
        return false;
    if (getU32(p) != kFooterMagic)
        return false;
    if (getU32(p + len - 4) != crc32c(p, len - 4))
        return false;
    std::uint64_t nframes = getU64(p + 4);
    if (nframes > kMaxFooterFrames)
        return false;
    if (len != kFooterFixedBytes + nframes * kIndexEntryBytes)
        return false;
    total_records = getU64(p + 12);
    index.clear();
    index.reserve(static_cast<std::size_t>(nframes));
    const std::uint8_t *e = p + 20;
    for (std::uint64_t i = 0; i < nframes; ++i) {
        IndexEntry ent;
        ent.offset = getU64(e);
        ent.start_index = getU64(e + 8);
        index.push_back(ent);
        e += kIndexEntryBytes;
    }
    return true;
}

} // namespace ftr
} // namespace trace
} // namespace assoc
