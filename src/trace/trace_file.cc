#include "trace/trace_file.h"

#include <cstring>
#include <fstream>

#include "trace/din_io.h"
#include "trace/ftr_reader.h"
#include "trace/ftr_writer.h"

namespace assoc {
namespace trace {

namespace {

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** What openTraceFile() returns for a file it cannot read at all. */
class FailedTraceSource : public TraceSource
{
  public:
    explicit FailedTraceSource(Error e) : error_(std::move(e)) {}

    bool next(MemRef &) override { return false; }
    void reset() override {}
    const Error &error() const override { return error_; }

  private:
    Error error_;
};

} // namespace

const char *
traceFormatName(TraceFormat f)
{
    return f == TraceFormat::Ftr ? "ftr" : "din";
}

Expected<TraceFormat>
detectTraceFormat(const std::string &path)
{
    if (hasSuffix(path, ".din"))
        return TraceFormat::Din;
    if (hasSuffix(path, ".ftr"))
        return TraceFormat::Ftr;
    std::ifstream in(path, std::ios::binary);
    char magic[4] = {0, 0, 0, 0};
    in.read(magic, sizeof(magic));
    if (in.gcount() == 4) {
        if (std::memcmp(magic, "ASF1", 4) == 0)
            return TraceFormat::Ftr;
        if (std::memcmp(magic, "ASTR", 4) == 0)
            return Error::data("'" + path + "' is a packed .bin trace "
                               "(magic ASTR); that format was "
                               "removed, only .din and .ftr are read");
    }
    return TraceFormat::Din;
}

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path, ErrorPolicy policy,
              const IoFaultPlan &faults)
{
    Expected<TraceFormat> fmt = detectTraceFormat(path);
    if (!fmt.ok())
        return std::make_unique<FailedTraceSource>(fmt.error());
    std::unique_ptr<std::istream> in;
    if (faults.armed())
        in = openFaultyFile(path, faults);
    else
        in = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (fmt.value() == TraceFormat::Ftr)
        return std::make_unique<FtrTraceSource>(std::move(in), path,
                                                policy);
    return std::make_unique<DinTraceSource>(std::move(in), path,
                                            policy);
}

void
writeTraceFile(TraceSource &src, const std::string &path,
               std::uint32_t frame_records)
{
    if (hasSuffix(path, ".din")) {
        writeDin(src, path);
        return;
    }
    if (!hasSuffix(path, ".ftr"))
        throwError(Error::usage(
            "output trace '" + path + "' needs a .din or .ftr "
            "extension" +
            (hasSuffix(path, ".bin")
                 ? " (the packed .bin format was removed; .ftr "
                   "replaces it)"
                 : "")));
    FtrWriter::Options opt;
    opt.frame_records = frame_records;
    Expected<std::uint64_t> n = writeFtr(src, path, opt);
    if (!n.ok())
        throwError(Error(n.error()));
}

} // namespace trace
} // namespace assoc
