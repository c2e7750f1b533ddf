#include "exec/report.h"

#include <cstdio>
#include <iostream>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace assoc {
namespace exec {

ProgressMeter::ProgressMeter(std::size_t total, bool verbose,
                             std::string label)
    : total_(total), verbose_(verbose), label_(std::move(label))
{}

void
ProgressMeter::tick()
{
    std::size_t k = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!verbose_)
        return;
    std::lock_guard<std::mutex> lock(io_mutex_);
    std::fprintf(stderr, "%s: %zu/%zu\n", label_.c_str(), k, total_);
}

void
ProgressMeter::note(const std::string &text)
{
    if (!verbose_)
        return;
    std::lock_guard<std::mutex> lock(io_mutex_);
    std::fprintf(stderr, "%s: %s\n", label_.c_str(), text.c_str());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Shortest round-trippable rendering of a double. */
std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

namespace {

/** The shared per-run body: identity, miss ratios, scheme means. */
void
writeRunBody(std::ostream &os, const sim::RunSpec &spec,
             const sim::RunOutput &out)
{
    os << "      \"l1\": \"" << jsonEscape(spec.hier.l1.name())
       << "\",\n";
    os << "      \"l2\": \"" << jsonEscape(spec.hier.l2.name())
       << "\",\n";
    os << "      \"wb_optimization\": "
       << (spec.wb_optimization ? "true" : "false") << ",\n";
    os << "      \"l1_miss_ratio\": "
       << jsonNum(out.stats.l1MissRatio()) << ",\n";
    os << "      \"global_miss_ratio\": "
       << jsonNum(out.stats.globalMissRatio()) << ",\n";
    os << "      \"local_miss_ratio\": "
       << jsonNum(out.stats.localMissRatio()) << ",\n";
    os << "      \"write_back_fraction\": "
       << jsonNum(out.stats.writeBackFraction()) << ",\n";
    if (out.skipped_records != 0)
        os << "      \"skipped_records\": " << out.skipped_records
           << ",\n";
    os << "      \"schemes\": [";
    for (std::size_t s = 0; s < out.probes.size(); ++s) {
        const core::ProbeStats &p = out.probes[s];
        if (s)
            os << ",";
        os << "\n        {\"name\": \"" << jsonEscape(out.names[s])
           << "\", "
           << "\"hits_mean\": " << jsonNum(p.hitsMean()) << ", "
           << "\"read_in_hits_mean\": "
           << jsonNum(p.read_in_hits.mean()) << ", "
           << "\"read_in_misses_mean\": "
           << jsonNum(p.read_in_misses.mean()) << ", "
           << "\"total_mean\": " << jsonNum(p.totalMean()) << "}";
    }
    if (!out.probes.empty())
        os << "\n      ";
    os << "]";
    if (!out.f.empty()) {
        os << ",\n      \"f\": [";
        for (std::size_t k = 0; k < out.f.size(); ++k)
            os << (k ? ", " : "") << jsonNum(out.f[k]);
        os << "]";
    }
}

void
writeErrorObject(std::ostream &os, const Error &e)
{
    os << "      \"error\": {\"code\": \"" << errorCodeName(e.code())
       << "\", \"message\": \"" << jsonEscape(e.message()) << "\"";
    if (!e.context().empty()) {
        os << ", \"context\": [";
        for (std::size_t i = 0; i < e.context().size(); ++i)
            os << (i ? ", " : "") << "\""
               << jsonEscape(e.context()[i]) << "\"";
        os << "]";
    }
    os << "}";
}

} // namespace

void
writeSweepJson(std::ostream &os,
               const std::vector<sim::RunSpec> &specs,
               const std::vector<sim::RunOutput> &outs)
{
    panicIf(specs.size() != outs.size(),
            "writeSweepJson: specs and outputs differ in length");
    os << "{\n  \"runs\": [\n";
    for (std::size_t i = 0; i < outs.size(); ++i) {
        os << "    {\n";
        writeRunBody(os, specs[i], outs[i]);
        os << "\n    }" << (i + 1 < outs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

void
writeSweepJson(std::ostream &os,
               const std::vector<sim::RunSpec> &specs,
               const SweepResult &result)
{
    panicIf(specs.size() != result.jobs.size(),
            "writeSweepJson: specs and job results differ in length");
    os << "{\n  \"runs\": [\n";
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const JobResult &job = result.jobs[i];
        os << "    {\n";
        os << "      \"status\": \"" << jobStatusName(job.status)
           << "\",\n";
        os << "      \"attempts\": " << job.attempts << ",\n";
        if (job.from_journal)
            os << "      \"from_journal\": true,\n";
        if (job.ok()) {
            writeRunBody(os, specs[i], job.output);
        } else {
            // Identity only: the statistics never materialized.
            os << "      \"l1\": \""
               << jsonEscape(specs[i].hier.l1.name()) << "\",\n";
            os << "      \"l2\": \""
               << jsonEscape(specs[i].hier.l2.name()) << "\",\n";
            os << "      \"wb_optimization\": "
               << (specs[i].wb_optimization ? "true" : "false")
               << ",\n";
            writeErrorObject(os, job.error);
        }
        os << "\n    }"
           << (i + 1 < result.jobs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"failures\": " << result.failures() << ",\n";
    os << "  \"cancelled\": " << result.cancelled() << ",\n";
    os << "  \"timed_out\": " << result.timedOut() << ",\n";
    os << "  \"over_budget\": " << result.overBudget() << ",\n";
    os << "  \"stalls\": " << result.stalls.size() << ",\n";
    os << "  \"resumed\": " << result.resumed << ",\n";
    os << "  \"shared_trace_bytes\": " << result.shared_trace_bytes
       << ",\n";
    os << "  \"interrupted\": "
       << (result.interrupted ? "true" : "false") << "\n";
    os << "}\n";
}

Expected<void>
writeSweepJsonFile(const std::string &path,
                   const std::vector<sim::RunSpec> &specs,
                   const std::vector<sim::RunOutput> &outs)
{
    if (path == "-") {
        writeSweepJson(std::cout, specs, outs);
        return {};
    }
    return writeFileAtomic(path, [&](std::ostream &os) {
        writeSweepJson(os, specs, outs);
    });
}

Expected<void>
writeSweepJsonFile(const std::string &path,
                   const std::vector<sim::RunSpec> &specs,
                   const SweepResult &result)
{
    if (path == "-") {
        writeSweepJson(std::cout, specs, result);
        return {};
    }
    return writeFileAtomic(path, [&](std::ostream &os) {
        writeSweepJson(os, specs, result);
    });
}

} // namespace exec
} // namespace assoc
