/**
 * @file
 * Trace utility: generate, convert, and inspect trace files.
 *
 * Subcommands (first positional argument):
 *   generate <out>   write the ATUM-like trace to a file
 *                    (.din = ASCII Dinero, .ftr = framed binary)
 *   convert <in> <out>  convert between the two formats
 *   stats <in>       print reference mix / footprint statistics
 *                    (--per-segment for one row per sub-trace)
 *   simulate <in>    run the file through the paper's default
 *                    hierarchy and print miss ratios
 *
 *   $ ./trace_tools generate /tmp/atum.ftr --segments=2
 *   $ ./trace_tools convert /tmp/atum.ftr /tmp/atum.din
 *   $ ./trace_tools stats /tmp/atum.din --per-segment
 *   $ ./trace_tools simulate /tmp/atum.ftr
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_file.h"
#include "trace/trace_stats.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;
using namespace assoc::trace;

namespace {

/** Propagate a reader failure (and report skips) after a drain. */
void
finishRead(const TraceSource &src, const std::string &path)
{
    if (src.failed())
        throwError(src.error());
    if (src.skippedRecords() > 0)
        std::fprintf(stderr,
                     "trace_tools: skipped %llu bad record(s) in %s\n",
                     static_cast<unsigned long long>(
                         src.skippedRecords()),
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("trace_tools",
                     "generate / convert / inspect trace files");
    parser.addFlag("segments", "2", "segments when generating");
    parser.addFlag("seed", "0", "generator seed (0 = default)");
    parser.addFlag("block", "32", "footprint block size for stats");
    parser.addFlag("errors", "fail-fast",
                   "bad-record policy: fail-fast|skip|strict");
    parser.addFlag("max-skips", "100",
                   "skip mode: give up past this many bad records");
    parser.addSwitch("per-segment",
                     "stats: one row per flush-delimited segment");
    return guardedMain("trace_tools", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        ErrorPolicy policy;
        Expected<ErrorMode> mode =
            errorModeFromString(parser.getString("errors"));
        if (!mode.ok())
            throwError(mode.error());
        policy.mode = mode.value();
        policy.max_skips = parser.getUint("max-skips");
        const auto &pos = parser.positional();
        fatalIf(pos.empty(),
                "usage: trace_tools generate|convert|stats <files>");
        const std::string &cmd = pos[0];

        if (cmd == "generate") {
            fatalIf(pos.size() != 2,
                    "usage: trace_tools generate <out>");
            AtumLikeConfig cfg;
            cfg.segments = parser.getUint32("segments");
            if (parser.getUint("seed") != 0)
                cfg.seed = parser.getUint("seed");
            AtumLikeGenerator gen(cfg);
            writeTraceFile(gen, pos[1]);
            std::printf("wrote %llu references to %s\n",
                        static_cast<unsigned long long>(
                            gen.totalRefs()),
                        pos[1].c_str());
        } else if (cmd == "convert") {
            fatalIf(pos.size() != 3,
                    "usage: trace_tools convert <in> <out>");
            auto in = openTraceFile(pos[1], policy);
            writeTraceFile(*in, pos[2]);
            finishRead(*in, pos[1]);
            std::printf("converted %s -> %s\n", pos[1].c_str(),
                        pos[2].c_str());
        } else if (cmd == "stats") {
            fatalIf(pos.size() != 2,
                    "usage: trace_tools stats <in>");
            auto in = openTraceFile(pos[1], policy);
            unsigned block = parser.getUint32("block");
            if (parser.getBool("per-segment")) {
                std::vector<TraceStats> segs =
                    collectSegmentStats(*in, block);
                finishRead(*in, pos[1]);
                TextTable t;
                t.setHeader({"Segment", "Refs", "Read%", "Write%",
                             "Ifetch%", "Footprint(KB)"});
                for (std::size_t i = 0; i < segs.size(); ++i) {
                    const TraceStats &s = segs[i];
                    t.addRow(
                        {std::to_string(i),
                         TextTable::num(s.refs),
                         TextTable::num(100 * s.readFraction(), 1),
                         TextTable::num(100 * s.writeFraction(), 1),
                         TextTable::num(100 * s.ifetchFraction(), 1),
                         TextTable::num(s.footprintBytes() / 1024)});
                }
                t.print(std::cout);
            } else {
                TraceStats stats = collectStats(*in, block);
                finishRead(*in, pos[1]);
                stats.print(std::cout);
            }
        } else if (cmd == "simulate") {
            fatalIf(pos.size() != 2,
                    "usage: trace_tools simulate <in>");
            auto in = openTraceFile(pos[1], policy);
            sim::RunSpec spec; // the paper's Figure 3 hierarchy
            core::SchemeSpec naive, mru;
            naive.kind = core::SchemeKind::Naive;
            mru.kind = core::SchemeKind::Mru;
            spec.schemes = {naive, mru,
                            core::SchemeSpec::paperPartial(
                                spec.hier.l2.assoc())};
            sim::RunOutput out = sim::runTrace(*in, spec);
            std::printf("L1 %s  L2 %s\n",
                        spec.hier.l1.name().c_str(),
                        spec.hier.l2.name().c_str());
            std::printf("L1 miss ratio %.4f | local %.4f | global "
                        "%.4f | wb fraction %.4f\n\n",
                        out.stats.l1MissRatio(),
                        out.stats.localMissRatio(),
                        out.stats.globalMissRatio(),
                        out.stats.writeBackFraction());
            TextTable t;
            t.setHeader({"Scheme", "Hits", "Misses", "Total"});
            for (std::size_t i = 0; i < out.names.size(); ++i) {
                t.addRow(
                    {out.names[i],
                     TextTable::num(out.probes[i].read_in_hits.mean(),
                                    2),
                     TextTable::num(
                         out.probes[i].read_in_misses.mean(), 2),
                     TextTable::num(out.probes[i].totalMean(), 2)});
            }
            t.print(std::cout);
        } else {
            fatal("unknown subcommand '" + cmd + "'");
        }
        return 0;
    });
}
