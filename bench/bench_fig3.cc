/**
 * @file
 * Reproduces Figure 3: average probes per level-two access
 * (read-ins + write-backs) versus associativity for the
 * Traditional, Naive, MRU and Partial implementations, with and
 * without the write-back optimization.
 *
 * Configuration: 16K-16 level-one cache, 256K-32 level-two cache,
 * 16-bit tags, k = 4, subsets 1/2/4 for 4/8/16-way.
 */

#include <cstdio>
#include <iostream>

#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_fig3",
                     "Figure 3: probes vs associativity, with and "
                     "without the write-back optimization");
    addSweepFlags(parser);
    return guardedMain("bench_fig3", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);

        std::printf("Figure 3 — probes per L2 access (read-ins + "
                    "write-backs), 16K-16 L1, 256K-32 L2\n\n");

        std::vector<RunSpec> specs;
        for (bool wb_opt : {true, false}) {
            for (unsigned a : {2u, 4u, 8u, 16u}) {
                RunSpec spec;
                spec.hier = mem::HierarchyConfig{
                    mem::CacheGeometry(16384, 16, 1),
                    mem::CacheGeometry(262144, 32, a), true};
                spec.wb_optimization = wb_opt;
                core::SchemeSpec trad, naive, mru;
                trad.kind = core::SchemeKind::Traditional;
                naive.kind = core::SchemeKind::Naive;
                mru.kind = core::SchemeKind::Mru;
                spec.schemes = {trad,
                                core::SchemeSpec::paperPartial(a),
                                mru, naive};
                specs.push_back(spec);
            }
        }
        SweepResult run = bench::runSweepChecked(specs, args, "fig3");
        maybeWriteSweepJson(args, specs, run);

        std::size_t idx = 0;
        for (bool wb_opt : {true, false}) {
            TextTable table;
            table.setHeader({"Assoc", "Traditional", "Partial",
                             "MRU", "Naive"});
            for (unsigned a : {2u, 4u, 8u, 16u}) {
                const JobResult &job = run.jobs[idx++];
                if (!job.ok()) {
                    table.addRow(gapRow(std::to_string(a), 4));
                    continue;
                }
                const RunOutput &out = job.output;
                table.addRow(
                    {std::to_string(a),
                     TextTable::num(out.probes[0].totalMean(), 2),
                     TextTable::num(out.probes[1].totalMean(), 2),
                     TextTable::num(out.probes[2].totalMean(), 2),
                     TextTable::num(out.probes[3].totalMean(), 2)});
            }
            std::printf("%s the write-back optimization:\n\n",
                        wb_opt ? "With" : "Without");
            table.print(std::cout, args.format);
            std::printf("\n");
        }
        return sweepExitCode(run);
    });
}
