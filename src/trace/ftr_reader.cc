#include "trace/ftr_reader.h"

#include <algorithm>
#include <array>
#include <fstream>

#include "util/crc32c.h"
#include "util/logging.h"

namespace assoc {
namespace trace {

using ftr::getU32;

FtrFrameReader::FtrFrameReader(std::unique_ptr<std::istream> in,
                               std::string name)
    : in_(std::move(in)), name_(std::move(name))
{}

std::uint64_t
FtrFrameReader::fileSize(Error &hard)
{
    in_->clear();
    in_->seekg(0, std::ios::end);
    if (!in_->good()) {
        hard = Error::io("cannot determine the size of '" + name_ + "'");
        return 0;
    }
    return static_cast<std::uint64_t>(in_->tellg());
}

std::size_t
FtrFrameReader::readAt(std::uint64_t off, std::uint8_t *dst,
                       std::size_t n, Error &hard)
{
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(off));
    if (in_->bad() || in_->fail()) {
        hard = Error::io("cannot seek to byte offset " +
                         std::to_string(off) + " in '" + name_ + "'");
        return 0;
    }
    in_->read(reinterpret_cast<char *>(dst),
              static_cast<std::streamsize>(n));
    std::size_t got = static_cast<std::size_t>(in_->gcount());
    if (in_->bad()) {
        // The device failed, not the data: never skippable.
        hard = Error::io("read error in '" + name_ +
                         "' near byte offset " +
                         std::to_string(off + got));
    }
    return got;
}

FtrFrameReader::Check
FtrFrameReader::readFrame(std::uint64_t off, std::uint64_t data_end,
                          ftr::FrameHeader &fh, const Destination &into,
                          Error &hard)
{
    std::array<std::uint8_t, ftr::kFrameHeaderBytes> hdr{};
    std::size_t got = readAt(off, hdr.data(), hdr.size(), hard);
    if (hard.failed())
        return Check::Hard;
    if (got < hdr.size())
        return Check::Corrupt; // torn off mid-header
    if (!ftr::decodeFrameHeader(hdr.data(), fh))
        return Check::Corrupt;
    std::uint64_t body = static_cast<std::uint64_t>(fh.payload_len) +
                         ftr::kFrameCrcBytes;
    if (off + ftr::kFrameHeaderBytes + body > data_end)
        return Check::Corrupt; // frame sticks past frame data

    if (body > buf_charge_.bytes()) {
        Expected<MemCharge> c = MemCharge::charge(
            budget_, body, "'" + name_ + "' frame payload buffer");
        if (!c.ok()) {
            hard = Error(c.error());
            return Check::Hard;
        }
        buf_charge_ = c.take();
    }
    buf_.resize(static_cast<std::size_t>(body));
    got = readAt(off + ftr::kFrameHeaderBytes, buf_.data(), buf_.size(),
                 hard);
    if (hard.failed())
        return Check::Hard;
    if (got < buf_.size())
        return Check::Corrupt; // torn off mid-payload
    if (getU32(buf_.data() + fh.payload_len) !=
        crc32c(buf_.data(), fh.payload_len))
        return Check::Corrupt;

    MemRef *out = into(fh, hard);
    if (hard.failed())
        return Check::Hard;
    if (!ftr::decodeFramePayload(buf_.data(), fh.payload_len,
                                 fh.record_count, out))
        return Check::Corrupt;
    return Check::Good;
}

FtrTraceSource::FtrTraceSource(const std::string &path,
                               ErrorPolicy policy)
    : FtrTraceSource(std::make_unique<std::ifstream>(path,
                                                     std::ios::binary),
                     path, policy)
{}

FtrTraceSource::FtrTraceSource(std::unique_ptr<std::istream> in,
                               std::string name, ErrorPolicy policy)
    : name_(std::move(name)), policy_(policy),
      frames_(std::move(in), name_)
{
    if (!frames_.opened()) {
        header_error_ = Error::io("cannot open ftr trace '" + name_ +
                                  "'");
        error_ = header_error_;
        done_ = true;
        return;
    }
    openAndValidate();
}

FtrTraceSource::~FtrTraceSource()
{
    stopProducer();
}

void
FtrTraceSource::openAndValidate()
{
    Error hard;
    file_size_ = frames_.fileSize(hard);
    if (hard.failed()) {
        header_error_ = hard;
    } else {
        std::array<std::uint8_t, ftr::kHeaderBytes> hdr{};
        std::size_t got =
            frames_.readAt(0, hdr.data(), hdr.size(), hard);
        if (hard.failed()) {
            header_error_ = hard;
        } else {
            Expected<ftr::FileHeader> h =
                ftr::decodeFileHeader(hdr.data(), got);
            if (!h.ok())
                header_error_ =
                    Error(h.error()).withContext("'" + name_ + "'");
            else {
                header_ = h.take();
                total_ = header_.total_records;
            }
        }
    }
    if (header_error_.ok())
        loadIndex();
    error_ = header_error_;
    done_ = header_error_.failed();
    resetCore();
}

void
FtrTraceSource::loadIndex()
{
    data_end_ = ftr::kHeaderBytes;
    bool ok = false;
    do {
        if (file_size_ < ftr::kHeaderBytes + ftr::kFooterFixedBytes +
                             ftr::kTrailerBytes)
            break;
        std::array<std::uint8_t, ftr::kTrailerBytes> tr{};
        Error hard;
        if (frames_.readAt(file_size_ - ftr::kTrailerBytes, tr.data(),
                           tr.size(), hard) != tr.size() ||
            hard.failed()) {
            if (hard.failed()) {
                header_error_ = hard;
                return;
            }
            break;
        }
        if (getU32(tr.data() + 4) != ftr::kTrailerMagic)
            break;
        std::uint64_t blen = getU32(tr.data());
        if (blen < ftr::kFooterFixedBytes ||
            ftr::kHeaderBytes + blen + ftr::kTrailerBytes > file_size_)
            break;
        std::vector<std::uint8_t> block(
            static_cast<std::size_t>(blen));
        std::uint64_t boff = file_size_ - ftr::kTrailerBytes - blen;
        if (frames_.readAt(boff, block.data(), block.size(), hard) !=
                block.size() ||
            hard.failed()) {
            if (hard.failed()) {
                header_error_ = hard;
                return;
            }
            break;
        }
        std::uint64_t ftotal = 0;
        if (!ftr::decodeFooter(block.data(), block.size(), index_,
                               ftotal))
            break;
        if (ftotal != header_.total_records) {
            index_.clear();
            break;
        }
        data_end_ = boff;
        ok = true;
    } while (false);

    if (ok)
        return;
    if (policy_.mode == ErrorMode::Skip) {
        // A zero header total with no usable footer is the crash-
        // before-finish() shape: the writer never patched the total,
        // so only the frames themselves can say how many records
        // exist. Bounding the scan by the (unpatched) header total
        // would reject every frame and silently read an empty trace.
        total_unknown_ = header_.total_records == 0;
        if (total_unknown_)
            warn("'" + name_ + "': no frame index and an unpatched "
                 "(zero) header record total — the writer crashed "
                 "before finish(); deriving the total from the "
                 "frames it flushed");
        else
            warn("'" + name_ + "': frame index (footer) is missing "
                 "or damaged; rebuilding it by scanning frame "
                 "headers");
        index_rebuilt_ = true;
        rebuildIndexByScan();
    } else {
        header_error_ = Error::data(
            "'" + name_ + "': frame index (footer) is missing or "
            "damaged (skip mode rebuilds it by scanning)");
    }
}

void
FtrTraceSource::rebuildIndexByScan()
{
    index_.clear();
    data_end_ = ftr::kHeaderBytes;
    std::uint64_t pos = ftr::kHeaderBytes;
    std::array<std::uint8_t, ftr::kFrameHeaderBytes> hdr{};
    std::vector<std::uint8_t> win(kScanChunk);
    while (pos + ftr::kFrameHeaderBytes <= file_size_) {
        Error hard;
        std::size_t got =
            frames_.readAt(pos, hdr.data(), hdr.size(), hard);
        if (hard.failed()) {
            header_error_ = hard;
            return;
        }
        if (got < hdr.size())
            break;
        if (getU32(hdr.data()) == ftr::kFooterMagic)
            break; // walked into the (unusable) footer block
        ftr::FrameHeader fh;
        if (ftr::decodeFrameHeader(hdr.data(), fh) &&
            pos + ftr::kFrameHeaderBytes + fh.payload_len +
                    ftr::kFrameCrcBytes <=
                file_size_ &&
            (total_unknown_ ||
             fh.start_index + fh.record_count <= total_)) {
            index_.push_back({pos, fh.start_index});
            if (total_unknown_)
                total_ = std::max(total_, fh.start_index +
                                              fh.record_count);
            pos += ftr::kFrameHeaderBytes + fh.payload_len +
                   ftr::kFrameCrcBytes;
            data_end_ = pos;
            continue;
        }
        // Damaged header: hunt forward for the next plausible frame.
        std::uint64_t scan = pos + 1;
        bool found = false;
        while (!found &&
               scan + ftr::kFrameHeaderBytes <= file_size_) {
            std::size_t want = static_cast<std::size_t>(std::min<
                std::uint64_t>(kScanChunk, file_size_ - scan));
            got = frames_.readAt(scan, win.data(), want, hard);
            if (hard.failed()) {
                header_error_ = hard;
                return;
            }
            if (got < 4)
                break;
            for (std::size_t i = 0; i + 4 <= got; ++i) {
                if (getU32(win.data() + i) != ftr::kFrameMagic)
                    continue;
                std::uint64_t cand = scan + i;
                if (cand + ftr::kFrameHeaderBytes > file_size_)
                    continue;
                std::size_t hgot =
                    frames_.readAt(cand, hdr.data(), hdr.size(), hard);
                if (hard.failed()) {
                    header_error_ = hard;
                    return;
                }
                ftr::FrameHeader cfh;
                if (hgot == hdr.size() &&
                    ftr::decodeFrameHeader(hdr.data(), cfh)) {
                    pos = cand;
                    found = true;
                    break;
                }
            }
            if (found || got < want)
                break;
            scan += got - 3; // re-examine chunk-boundary bytes
        }
        if (!found)
            break;
    }
}

FtrTraceSource::FrameCheck
FtrTraceSource::tryFrameAt(std::uint64_t off, ftr::FrameHeader &fh,
                           Slot &s, Error &hard)
{
    s.recs.clear();
    s.charge.release();
    const FrameCheck c = frames_.readFrame(
        off, data_end_, fh,
        [&](const ftr::FrameHeader &h, Error &refused) -> MemRef * {
            Expected<MemCharge> rc = MemCharge::charge(
                budget_,
                static_cast<std::uint64_t>(h.record_count) *
                    sizeof(MemRef),
                "'" + name_ + "' decoded frame");
            if (!rc.ok()) {
                refused = Error(rc.error());
                return nullptr;
            }
            s.charge = rc.take();
            s.recs.resize(h.record_count);
            return s.recs.data();
        },
        hard);
    if (c != FrameCheck::Good) {
        s.recs.clear();
        s.charge.release();
    }
    return c;
}

bool
FtrTraceSource::resync(std::uint64_t from, ftr::FrameHeader &fh,
                       Slot &s, Error &hard, bool &found)
{
    found = false;
    std::vector<std::uint8_t> win(kScanChunk);
    std::uint64_t pos = from;
    while (pos + ftr::kFrameHeaderBytes <= data_end_) {
        if (cancel_) {
            Expected<void> go = cancel_->checkpoint();
            if (!go.ok()) {
                hard = Error(go.error())
                           .withContext("'" + name_ +
                                        "': resyncing after damage");
                return false;
            }
        }
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kScanChunk, data_end_ - pos));
        std::size_t got = frames_.readAt(pos, win.data(), want, hard);
        if (hard.failed())
            return false;
        if (got < 4)
            break;
        for (std::size_t i = 0; i + 4 <= got; ++i) {
            if (getU32(win.data() + i) != ftr::kFrameMagic)
                continue;
            std::uint64_t cand = pos + i;
            FrameCheck c = tryFrameAt(cand, fh, s, hard);
            if (c == FrameCheck::Hard)
                return false;
            if (c == FrameCheck::Good &&
                fh.start_index >= expected_ &&
                fh.start_index + fh.record_count <= total_) {
                read_offset_ = cand;
                found = true;
                return true;
            }
        }
        if (got < want)
            break; // the file shrank under us; treat as torn
        pos += got - 3; // re-examine chunk-boundary bytes
    }
    return true;
}

void
FtrTraceSource::endOfData()
{
    if (expected_ < total_) {
        std::uint64_t lost = total_ - expected_;
        if (policy_.mode != ErrorMode::Skip) {
            core_err_ = Error::data(
                "'" + name_ + "' ends at record " +
                std::to_string(expected_) + " of " +
                std::to_string(total_) +
                " (frame data is truncated)");
            return;
        }
        ++core_damage_;
        if (core_damage_ > policy_.max_skips) {
            core_err_ = Error::data(
                "'" + name_ + "': gave up after tolerating " +
                std::to_string(policy_.max_skips) +
                " damaged regions (torn tail loses " +
                std::to_string(lost) + " records)");
            return;
        }
        if (core_damage_ == 1)
            warn("'" + name_ + "' ends at record " +
                 std::to_string(expected_) + " of " +
                 std::to_string(total_) +
                 " (skipping the torn tail)");
        core_skipped_ += lost;
        expected_ = total_;
    }
    core_end_ = true;
}

FtrTraceSource::Slot
FtrTraceSource::fillSlot()
{
    Slot s;
    for (;;) {
        if (core_err_.failed()) {
            s.err = core_err_;
            break;
        }
        if (core_end_) {
            s.end = true;
            break;
        }
        if (cancel_) {
            Expected<void> go = cancel_->checkpoint();
            if (!go.ok()) {
                core_err_ = Error(go.error())
                                .withContext(
                                    "'" + name_ + "': record " +
                                    std::to_string(expected_));
                continue;
            }
        }
        if (read_offset_ >= data_end_) {
            endOfData();
            continue;
        }

        ftr::FrameHeader fh;
        Error hard;
        FrameCheck c = tryFrameAt(read_offset_, fh, s, hard);
        if (c == FrameCheck::Hard) {
            core_err_ = std::move(hard);
            continue;
        }
        // A verified frame that contradicts the stream is damage
        // too: stale duplicates (start below the stream position)
        // and frames claiming records past the header's total.
        if (c == FrameCheck::Good &&
            (fh.start_index < expected_ ||
             fh.start_index + fh.record_count > total_))
            c = FrameCheck::Corrupt;

        bool resynced = false;
        if (c == FrameCheck::Corrupt) {
            std::uint64_t at = read_offset_;
            if (policy_.mode != ErrorMode::Skip) {
                core_err_ = Error::data(
                    "'" + name_ + "': corrupt frame at byte offset " +
                    std::to_string(at) + " (next record " +
                    std::to_string(expected_) + " of " +
                    std::to_string(total_) + ")");
                continue;
            }
            ++core_damage_;
            if (core_damage_ > policy_.max_skips) {
                core_err_ =
                    Error::data("'" + name_ +
                                "': gave up after tolerating " +
                                std::to_string(policy_.max_skips) +
                                " damaged regions")
                        .withContext("last damage at byte offset " +
                                     std::to_string(at));
                continue;
            }
            if (core_damage_ == 1)
                warn("'" + name_ +
                     "': corrupt frame at byte offset " +
                     std::to_string(at) +
                     " (resyncing; further damage counted "
                     "silently)");
            bool found = false;
            if (!resync(at + 1, fh, s, hard, found)) {
                core_err_ = std::move(hard);
                continue;
            }
            if (!found) {
                endOfData();
                continue;
            }
            resynced = true; // read_offset_ now at the found frame
        }

        if (fh.start_index > expected_) {
            // Records in between are unreachable. After a resync the
            // damage event is already counted; a silent gap between
            // back-to-back valid frames is its own event.
            if (policy_.mode != ErrorMode::Skip) {
                core_err_ = Error::data(
                    "'" + name_ + "': records " +
                    std::to_string(expected_) + ".." +
                    std::to_string(fh.start_index - 1) +
                    " are missing (gap before the frame at byte "
                    "offset " +
                    std::to_string(read_offset_) + ")");
                continue;
            }
            if (!resynced) {
                ++core_damage_;
                if (core_damage_ > policy_.max_skips) {
                    core_err_ = Error::data(
                        "'" + name_ +
                        "': gave up after tolerating " +
                        std::to_string(policy_.max_skips) +
                        " damaged regions");
                    continue;
                }
            }
            core_skipped_ += fh.start_index - expected_;
            expected_ = fh.start_index;
        }

        s.first_index = fh.start_index;
        expected_ = fh.start_index + fh.record_count;
        read_offset_ += ftr::kFrameHeaderBytes + fh.payload_len +
                        ftr::kFrameCrcBytes;
        if (s.recs.empty())
            continue; // zero-record frame; nothing to deliver
        break;
    }
    s.skipped_total = core_skipped_;
    s.damage_total = core_damage_;
    return s;
}

void
FtrTraceSource::producerLoop()
{
    for (;;) {
        Slot s = fillSlot();
        bool last = s.end || s.err.failed();
        {
            std::unique_lock<std::mutex> l(mu_);
            cv_.wait(l, [&] {
                return stop_ || queue_.size() < kPrefetchDepth;
            });
            if (stop_)
                return;
            queue_.push_back(std::move(s));
        }
        cv_.notify_all();
        if (last)
            return;
    }
}

void
FtrTraceSource::ensureStarted()
{
    if (started_)
        return;
    stop_ = false;
    started_ = true;
    producer_ = std::thread(&FtrTraceSource::producerLoop, this);
}

void
FtrTraceSource::stopProducer()
{
    if (started_) {
        {
            std::lock_guard<std::mutex> l(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (producer_.joinable())
            producer_.join();
        started_ = false;
        stop_ = false;
    }
    queue_.clear();
}

bool
FtrTraceSource::pullBuffer()
{
    for (;;) {
        cur_charge_.release();
        cur_.clear();
        cur_pos_ = 0;
        ensureStarted();
        Slot s;
        {
            std::unique_lock<std::mutex> l(mu_);
            cv_.wait(l, [&] { return !queue_.empty(); });
            s = std::move(queue_.front());
            queue_.pop_front();
        }
        cv_.notify_all();
        skipped_ = s.skipped_total;
        damage_ = s.damage_total;
        if (s.err.failed()) {
            error_ = s.err;
            done_ = true;
            return false;
        }
        if (s.end) {
            done_ = true;
            return false;
        }
        cur_ = std::move(s.recs);
        cur_charge_ = std::move(s.charge);
        cur_first_ = s.first_index;
        cur_pos_ = 0;
        if (!cur_.empty())
            return true;
    }
}

bool
FtrTraceSource::next(MemRef &ref)
{
    if (done_)
        return false;
    if (cancel_ && ++polled_ >= kCancelStride) {
        polled_ = 0;
        Expected<void> go = cancel_->checkpoint();
        if (!go.ok()) {
            error_ = Error(go.error())
                         .withContext("'" + name_ + "': record " +
                                      std::to_string(cur_first_ +
                                                     cur_pos_));
            done_ = true;
            return false;
        }
    }
    if (cur_pos_ >= cur_.size() && !pullBuffer())
        return false;
    ref = cur_[cur_pos_++];
    return true;
}

std::size_t
FtrTraceSource::nextBatch(MemRef *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && !done_) {
        if (cur_pos_ >= cur_.size() && !pullBuffer())
            break;
        std::size_t take =
            std::min(max - n, cur_.size() - cur_pos_);
        std::copy_n(cur_.begin() +
                        static_cast<std::ptrdiff_t>(cur_pos_),
                    take, out + n);
        cur_pos_ += take;
        n += take;
        polled_ += take;
        if (cancel_ && polled_ >= kCancelStride) {
            polled_ = 0;
            Expected<void> go = cancel_->checkpoint();
            if (!go.ok()) {
                error_ = Error(go.error())
                             .withContext(
                                 "'" + name_ + "': record " +
                                 std::to_string(cur_first_ +
                                                cur_pos_));
                done_ = true;
                break;
            }
        }
    }
    return n;
}

void
FtrTraceSource::resetCore()
{
    read_offset_ = ftr::kHeaderBytes;
    expected_ = 0;
    core_skipped_ = 0;
    core_damage_ = 0;
    core_end_ = false;
    core_err_ = Error();
}

void
FtrTraceSource::reset()
{
    stopProducer();
    cur_charge_.release();
    cur_.clear();
    cur_pos_ = 0;
    cur_first_ = 0;
    polled_ = 0;
    skipped_ = 0;
    damage_ = 0;
    error_ = header_error_;
    done_ = header_error_.failed();
    resetCore();
}

} // namespace trace
} // namespace assoc
