/**
 * @file
 * Reproduces Figure 4: probes for read-in *hits* (left graph) and
 * read-in *misses* (right graph) separately, versus associativity,
 * for the Naive, MRU and Partial schemes.
 *
 * Shows the paper's headline split: MRU and Partial are close on
 * hits; Partial dominates on misses (Naive and MRU pay a and a+1).
 */

#include <cstdio>
#include <iostream>

#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_fig4",
                     "Figure 4: probes for read-in hits and misses");
    addSweepFlags(parser);
    return guardedMain("bench_fig4", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);

        std::printf("Figure 4 — read-in hits (left) and misses "
                    "(right), 16K-16 L1, 256K-32 L2\n\n");

        TextTable hits, misses;
        hits.setHeader({"Assoc", "Partial", "MRU", "Naive"});
        misses.setHeader({"Assoc", "Partial", "Naive", "MRU"});

        const unsigned assocs[] = {2u, 4u, 8u, 16u};
        std::vector<RunSpec> specs;
        for (unsigned a : assocs) {
            RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(16384, 16, 1),
                mem::CacheGeometry(262144, 32, a), true};
            core::SchemeSpec naive, mru;
            naive.kind = core::SchemeKind::Naive;
            mru.kind = core::SchemeKind::Mru;
            spec.schemes = {core::SchemeSpec::paperPartial(a), mru,
                            naive};
            specs.push_back(spec);
        }
        SweepResult run = bench::runSweepChecked(specs, args, "fig4");
        maybeWriteSweepJson(args, specs, run);

        std::size_t idx = 0;
        for (unsigned a : assocs) {
            const JobResult &job = run.jobs[idx++];
            if (!job.ok()) {
                hits.addRow(gapRow(std::to_string(a), 3));
                misses.addRow(gapRow(std::to_string(a), 3));
                continue;
            }
            const RunOutput &out = job.output;
            hits.addRow(
                {std::to_string(a),
                 TextTable::num(out.probes[0].read_in_hits.mean(), 2),
                 TextTable::num(out.probes[1].read_in_hits.mean(), 2),
                 TextTable::num(out.probes[2].read_in_hits.mean(),
                                2)});
            misses.addRow(
                {std::to_string(a),
                 TextTable::num(out.probes[0].read_in_misses.mean(),
                                2),
                 TextTable::num(out.probes[2].read_in_misses.mean(),
                                2),
                 TextTable::num(out.probes[1].read_in_misses.mean(),
                                2)});
        }
        std::printf("Read-in hits:\n\n");
        hits.print(std::cout, args.format);
        std::printf("\nRead-in misses:\n\n");
        misses.print(std::cout, args.format);
        return sweepExitCode(run);
    });
}
