/**
 * @file
 * Reproduces Figure 6: the partial-compare scheme with larger tags
 * and different transformations.
 *
 * Left graph: read-in hit probes versus associativity for 16- and
 * 32-bit tags under no transform, the simple XOR transform, the
 * improved ("new") transform, and the analytic lower bound.
 * Right graph: best partial transform versus the MRU scheme at both
 * tag widths.
 */

#include <cstdio>
#include <iostream>

#include "core/analytic.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;
using core::TransformKind;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_fig6",
                     "Figure 6: partial compares with larger tags "
                     "and different transformations");
    addSweepFlags(parser);
    return guardedMain("bench_fig6", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);

        std::printf("Figure 6 — partial scheme on read-in hits "
                    "(16K-16 L1, 256K-32 L2)\n\n");

        const TransformKind kinds[] = {
            TransformKind::None, TransformKind::XorLow,
            TransformKind::Improved, TransformKind::Swap};
        const unsigned tags[] = {16u, 32u};
        const unsigned assocs[] = {4u, 8u, 16u};

        std::vector<RunSpec> specs;
        for (unsigned t : tags) {
            for (unsigned a : assocs) {
                RunSpec spec;
                spec.hier = mem::HierarchyConfig{
                    mem::CacheGeometry(16384, 16, 1),
                    mem::CacheGeometry(262144, 32, a), true};
                for (TransformKind kind : kinds) {
                    core::SchemeSpec p =
                        core::SchemeSpec::paperPartial(a, t);
                    p.transform = kind;
                    spec.schemes.push_back(p);
                }
                core::SchemeSpec mru;
                mru.kind = core::SchemeKind::Mru;
                spec.schemes.push_back(mru);
                specs.push_back(spec);
            }
        }
        SweepResult run = bench::runSweepChecked(specs, args, "fig6");
        maybeWriteSweepJson(args, specs, run);

        std::size_t idx = 0;
        for (unsigned t : tags) {
            TextTable table;
            table.setHeader({"Assoc", "None", "XOR", "New", "Swap",
                             "Theory", "MRU"});
            for (unsigned a : assocs) {
                const JobResult &job = run.jobs[idx++];
                if (!job.ok()) {
                    table.addRow(gapRow(std::to_string(a), 6));
                    continue;
                }
                const RunOutput &out = job.output;

                core::SchemeSpec sample =
                    core::SchemeSpec::paperPartial(a, t);
                double theory = core::analytic::partialHit(
                    a, sample.partial_k, sample.partial_subsets);

                table.addRow(
                    {std::to_string(a),
                     TextTable::num(out.probes[0].read_in_hits.mean(),
                                    2),
                     TextTable::num(out.probes[1].read_in_hits.mean(),
                                    2),
                     TextTable::num(out.probes[2].read_in_hits.mean(),
                                    2),
                     TextTable::num(out.probes[3].read_in_hits.mean(),
                                    2),
                     TextTable::num(theory, 2),
                     TextTable::num(out.probes[4].read_in_hits.mean(),
                                    2)});
            }
            std::printf("%u-bit tags (k = %u/%u/%u, subsets per the "
                        "paper's rule):\n\n",
                        t, core::SchemeSpec::paperPartial(4, t).partial_k,
                        core::SchemeSpec::paperPartial(8, t).partial_k,
                        core::SchemeSpec::paperPartial(16, t).partial_k);
            table.print(std::cout, args.format);
            std::printf("\n");
        }
        std::printf("Theory is the probabilistic lower bound of "
                    "Section 2 (uniform independent fields).\n");
        return sweepExitCode(run);
    });
}
