#include "trace/din_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace assoc {
namespace trace {

namespace {

int
labelOf(RefType t)
{
    switch (t) {
      case RefType::Read:
        return 0;
      case RefType::Write:
        return 1;
      case RefType::Ifetch:
        return 2;
      case RefType::Flush:
        return 4;
    }
    return 0;
}

/** Parse a decimal token fully; false on junk. */
bool
parseUint(const std::string &tok, std::uint64_t &out)
{
    try {
        std::size_t pos = 0;
        out = std::stoull(tok, &pos, 10);
        return pos == tok.size();
    } catch (const std::logic_error &) {
        return false;
    }
}

} // namespace

void
writeDin(TraceSource &src, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throwError(Error::io("cannot open '" + path + "' for writing"));
    out << "# din trace (label addr-hex pid)\n";
    MemRef r;
    src.reset();
    while (src.next(r)) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%d %x %u\n", labelOf(r.type),
                      r.addr, static_cast<unsigned>(r.pid));
        out << buf;
    }
    if (!out.good())
        throwError(Error::io("error writing '" + path + "'"));
}

DinTraceSource::DinTraceSource(const std::string &path, ErrorPolicy policy)
    : DinTraceSource(std::make_unique<std::ifstream>(path), path, policy)
{}

DinTraceSource::DinTraceSource(std::unique_ptr<std::istream> in,
                               std::string name, ErrorPolicy policy)
    : path_(std::move(name)), policy_(policy), in_(std::move(in))
{
    if (!in_ || in_->fail()) {
        // Dropping the stream is what tells reset() the file never
        // opened, so rewinding keeps this error.
        in_.reset();
        error_ = Error::io("cannot open din trace '" + path_ + "'");
    }
}

bool
DinTraceSource::tolerate(const std::string &what, const std::string &text)
{
    Error e = Error::data(path_ + ":" + std::to_string(line_) + ": " +
                          what);
    e.withContext("reading line '" + text + "'");
    if (policy_.mode == ErrorMode::Skip) {
        ++skipped_;
        if (skipped_ <= policy_.max_skips) {
            if (skipped_ == 1)
                warn(e.text() + " (skipping; further skips silent)");
            return true;
        }
        error_ = Error::data(path_ + ": gave up after skipping " +
                             std::to_string(policy_.max_skips) +
                             " malformed lines")
                     .withContext("last: " + e.text());
        return false;
    }
    error_ = std::move(e);
    return false;
}

bool
DinTraceSource::next(MemRef &ref)
{
    if (error_.failed())
        return false;
    std::string line;
    while (std::getline(*in_, line)) {
        ++line_;
        if (cancel_ && line_ % kCancelStride == 0) {
            Expected<void> go = cancel_->checkpoint();
            if (!go.ok()) {
                error_ = Error(go.error())
                             .withContext(path_ + ": line " +
                                          std::to_string(line_));
                return false;
            }
        }
        if (budget_ && line.capacity() > line_charge_.bytes()) {
            // Re-charge for the largest line seen so far: getline's
            // buffer growth is this reader's only unbounded
            // allocation (think a gigabyte with no newline).
            std::uint64_t want = line.capacity();
            line_charge_.release();
            Expected<MemCharge> c = MemCharge::charge(
                budget_, want, "din trace '" + path_ +
                                   "' line buffer");
            if (!c.ok()) {
                error_ = Error(c.error())
                             .withContext(path_ + ": line " +
                                          std::to_string(line_));
                return false;
            }
            line_charge_ = c.take();
        }
        if (line.empty() || line[0] == '#')
            continue;
        // writeDin ends every line with a newline, so under Strict a
        // record line that runs into end-of-file was cut short.
        if (policy_.mode == ErrorMode::Strict && in_->eof()) {
            tolerate("record line has no newline (file cut short?)",
                     line);
            return false;
        }
        std::istringstream iss(line);
        std::string label_tok, addr_tok, pid_tok, extra_tok;
        iss >> label_tok >> addr_tok;
        if (addr_tok.empty()) {
            if (tolerate("malformed din line", line))
                continue;
            return false;
        }
        iss >> pid_tok; // optional third column
        bool have_extra = static_cast<bool>(iss >> extra_tok);

        std::uint64_t label = 0;
        if (!parseUint(label_tok, label)) {
            if (tolerate("malformed din line", line))
                continue;
            return false;
        }
        RefType type;
        switch (label) {
          case 0: type = RefType::Read; break;
          case 1: type = RefType::Write; break;
          case 2: type = RefType::Ifetch; break;
          case 4: type = RefType::Flush; break;
          default:
            if (tolerate("unknown din label " + std::to_string(label),
                         line))
                continue;
            return false;
        }

        std::uint64_t addr = 0;
        bool addr_ok = false;
        try {
            std::size_t pos = 0;
            addr = std::stoull(addr_tok, &pos, 16);
            addr_ok = pos == addr_tok.size();
        } catch (const std::logic_error &) {
            addr_ok = false;
        }
        if (!addr_ok) {
            if (tolerate("bad address '" + addr_tok + "'", line))
                continue;
            return false;
        }

        std::uint64_t pid = 0;
        if (!pid_tok.empty() && !parseUint(pid_tok, pid)) {
            // Historically a junk third column left pid at 0; only
            // Strict rejects it.
            if (policy_.mode == ErrorMode::Strict) {
                if (tolerate("bad pid '" + pid_tok + "'", line))
                    continue;
                return false;
            }
            pid = 0;
        }

        if (policy_.mode == ErrorMode::Strict) {
            if (have_extra) {
                if (tolerate("trailing junk '" + extra_tok + "'", line))
                    continue;
                return false;
            }
            if (addr > 0xffffffffull) {
                if (tolerate("address '" + addr_tok +
                             "' exceeds 32 bits", line))
                    continue;
                return false;
            }
            if (pid > 0xff) {
                if (tolerate("pid " + std::to_string(pid) +
                             " exceeds 8 bits", line))
                    continue;
                return false;
            }
        }

        ref.addr = static_cast<Addr>(addr);
        ref.type = type;
        ref.pid = static_cast<std::uint8_t>(pid);
        return true;
    }
    // getline stops on both end-of-file and a hard read error; the
    // latter must not masquerade as a clean EOF, or a dying disk
    // would silently truncate the trace we compute statistics over.
    if (in_->bad())
        error_ = Error::io(path_ + ": read error after line " +
                           std::to_string(line_));
    return false;
}

void
DinTraceSource::reset()
{
    if (!in_)
        return; // never opened: keep the open error
    in_->clear();
    in_->seekg(0);
    line_ = 0;
    skipped_ = 0;
    error_ = Error();
    if (!in_->good())
        error_ = Error::io("cannot rewind din trace '" + path_ + "'");
}

} // namespace trace
} // namespace assoc
