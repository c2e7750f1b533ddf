/**
 * @file
 * Reproduces Table 4: the full configuration sweep. For each of the
 * paper's eight (L1, L2) configurations and each associativity
 * (4, 8, 16), reports global/local miss ratio, write-back fraction,
 * and the Naive / MRU / Partial probe counts (hits and total;
 * Partial also misses). The best total per row is starred, as in
 * the paper.
 *
 * Accounting follows the paper: write-backs cost zero probes (the
 * write-back optimization) but count as hit references in the
 * averages.
 */

#include <cstdio>
#include <iostream>

#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_table4",
                     "Table 4: probes for all cache configurations");
    parser.addFlag("tagbits", "16", "tag width t in bits");
    addSweepFlags(parser);
    return guardedMain("bench_table4", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);
        unsigned t = parser.getUint32("tagbits");

        // All 24 (associativity x configuration) runs are
        // independent: submit them as one sweep, then render the
        // tables from the in-order results.
        std::vector<RunSpec> specs;
        for (unsigned assoc : {4u, 8u, 16u}) {
            for (const Table4Config &cfg : table4Configs()) {
                RunSpec spec;
                spec.hier = mem::HierarchyConfig{
                    mem::CacheGeometry(cfg.l1_bytes, cfg.l1_block, 1),
                    mem::CacheGeometry(cfg.l2_bytes, cfg.l2_block,
                                       assoc),
                    true};
                core::SchemeSpec naive, mru;
                naive.kind = core::SchemeKind::Naive;
                naive.tag_bits = t;
                mru.kind = core::SchemeKind::Mru;
                mru.tag_bits = t;
                spec.schemes = {naive, mru,
                                core::SchemeSpec::paperPartial(assoc,
                                                               t)};
                specs.push_back(spec);
            }
        }
        SweepResult run =
            bench::runSweepChecked(specs, args, "table4");
        maybeWriteSweepJson(args, specs, run);

        std::size_t idx = 0;
        for (unsigned assoc : {4u, 8u, 16u}) {
            std::printf("\n%u-Way Set-Associative Level Two Cache "
                        "(t = %u)\n\n",
                        assoc, t);
            TextTable table;
            table.setHeader({"Configuration", "Global", "Local",
                             "WBfrac", "Naive-H", "Naive-T", "MRU-H",
                             "MRU-T", "Part-H", "Part-M", "Part-T"});

            for (const Table4Config &cfg : table4Configs()) {
                const JobResult &job = run.jobs[idx++];
                std::string name =
                    cacheName(cfg.l1_bytes, cfg.l1_block) + " " +
                    cacheName(cfg.l2_bytes, cfg.l2_block);
                if (!job.ok()) {
                    table.addRow(gapRow(name, 10));
                    continue;
                }
                const RunOutput &out = job.output;

                double naive_t = out.probes[0].totalMean();
                double mru_t = out.probes[1].totalMean();
                double part_t = out.probes[2].totalMean();
                double best =
                    std::min(naive_t, std::min(mru_t, part_t));
                auto star = [&](double v) {
                    std::string s = TextTable::num(v, 2);
                    return v == best ? "*" + s : s;
                };

                table.addRow(
                    {name,
                     TextTable::num(out.stats.globalMissRatio(), 4),
                     TextTable::num(out.stats.localMissRatio(), 4),
                     TextTable::num(out.stats.writeBackFraction(), 4),
                     TextTable::num(out.probes[0].hitsMean(), 2),
                     star(naive_t),
                     TextTable::num(out.probes[1].hitsMean(), 2),
                     star(mru_t),
                     TextTable::num(out.probes[2].hitsMean(), 2),
                     TextTable::num(
                         out.probes[2].read_in_misses.mean(), 2),
                     star(part_t)});
            }
            table.print(std::cout, args.format);
        }
        std::printf("\n(*) best method in total for the row. "
                    "Write-backs are zero-probe (write-back "
                    "optimization) and counted as hits.\n");
        return sweepExitCode(run);
    });
}
