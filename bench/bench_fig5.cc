/**
 * @file
 * Reproduces Figure 5: the MRU scheme in detail.
 *
 * Left graph: read-in hit probes for *reduced* MRU lists (lengths
 * 1, 2, 4, 8 and the full list) versus associativity.
 * Right graph: the MRU-distance hit distribution f_i for 4-, 8- and
 * 16-way level-two caches (the paper reads 75% / 60% / 36% at
 * distance 1).
 */

#include <cstdio>
#include <iostream>

#include "core/analytic.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_fig5",
                     "Figure 5: reduced MRU lists and the MRU "
                     "distance distribution");
    addSweepFlags(parser);
    return guardedMain("bench_fig5", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);

        std::printf("Figure 5 — the MRU scheme in detail "
                    "(16K-16 L1, 256K-32 L2, read-in hits)\n\n");

        // Left graph: reduced list lengths.
        TextTable left;
        left.setHeader({"Assoc", "list=1", "list=2", "list=4",
                        "list=8", "full"});
        const unsigned lengths[] = {1, 2, 4, 8, 0};
        const unsigned assocs[] = {4u, 8u, 16u};
        std::vector<std::vector<double>> fcurves;
        std::vector<RunSpec> specs;
        for (unsigned a : assocs) {
            RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(16384, 16, 1),
                mem::CacheGeometry(262144, 32, a), true};
            for (unsigned len : lengths) {
                core::SchemeSpec mru;
                mru.kind = core::SchemeKind::Mru;
                mru.mru_list_len = len;
                spec.schemes.push_back(mru);
            }
            spec.with_distances = true;
            specs.push_back(spec);
        }
        SweepResult run = bench::runSweepChecked(specs, args, "fig5");
        maybeWriteSweepJson(args, specs, run);

        std::size_t idx = 0;
        for (unsigned a : assocs) {
            const JobResult &job = run.jobs[idx++];
            if (!job.ok()) {
                left.addRow(gapRow(std::to_string(a), 5));
                left.addRow(
                    gapRow(std::to_string(a) + " (theory)", 5));
                fcurves.push_back({}); // gap column on the right
                continue;
            }
            const RunOutput &out = job.output;

            std::vector<std::string> row{std::to_string(a)};
            for (std::size_t i = 0; i < 5; ++i)
                row.push_back(TextTable::num(
                    out.probes[i].read_in_hits.mean(), 2));
            left.addRow(row);
            // Companion row: the analytic prediction from the
            // measured f_i (Section 2.1 extended to reduced lists).
            std::vector<std::string> pred{std::to_string(a) +
                                          " (theory)"};
            for (unsigned len : lengths)
                pred.push_back(TextTable::num(
                    core::analytic::mruReducedHit(out.f, len), 2));
            left.addRow(pred);
            fcurves.push_back(out.f);
        }
        std::printf("Reduced MRU lists — read-in hit probes "
                    "(measured, with the prediction from the "
                    "measured f_i below each row):\n\n");
        left.print(std::cout, args.format);

        // Right graph: f_i distributions.
        std::printf("\nMRU distance distribution f_i "
                    "(fraction of read-in hits at distance i):\n\n");
        TextTable right;
        right.setHeader({"Distance i", "4-way", "8-way", "16-way"});
        for (unsigned i = 1; i <= 16; ++i) {
            std::vector<std::string> row{std::to_string(i)};
            for (const auto &f : fcurves) {
                if (f.empty()) // that associativity's job failed
                    row.push_back(gapCell());
                else if (i < f.size())
                    row.push_back(TextTable::num(f[i], 4));
                else
                    row.push_back("");
            }
            right.addRow(row);
        }
        right.print(std::cout, args.format);
        return sweepExitCode(run);
    });
}
