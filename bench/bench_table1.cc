/**
 * @file
 * Reproduces Table 1: analytic expected probes per lookup for the
 * Traditional, Naive, MRU and Partial implementations.
 *
 * Pure formula evaluation (Section 2); no simulation. The MRU hit
 * entry is an interval because it depends on the f_i distribution,
 * exactly as the paper prints "[2, 5]".
 */

#include <cstdio>
#include <iostream>

#include "core/analytic.h"
#include "support.h"

using namespace assoc;
using namespace assoc::core;

namespace {

std::string
tagMemWidth(unsigned a, unsigned t, unsigned s, unsigned k,
            const char *method)
{
    if (std::string(method) == "Traditional")
        return std::to_string(a * t);
    if (std::string(method) == "Partial")
        return std::to_string(std::max(t, (a / s) * k));
    return std::to_string(t);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("bench_table1",
                     "Table 1: analytic expected probes per lookup");
    parser.addFlag("tagbits", "16", "tag width t in bits");
    bench::addCommonFlags(parser);
    return guardedMain("bench_table1", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        unsigned t = parser.getUint32("tagbits");
        bench::CommonArgs args = bench::readCommonFlags(parser);

        TextTable table;
        table.setHeader({"Method", "Assoc", "Subsets",
                         "TagMemWidth", "E[probes|hit]",
                         "E[probes|miss]"});

        // The paper's example associativity is 4 (and 8 for the
        // subset rows); print the general formula rows for 4, 8, 16.
        for (unsigned a : {4u, 8u, 16u}) {
            table.addRow({"Traditional", std::to_string(a), "1",
                          tagMemWidth(a, t, 1, 0, "Traditional"),
                          TextTable::num(analytic::traditionalHit(), 2),
                          TextTable::num(analytic::traditionalMiss(),
                                         2)});
        }
        table.addRule();
        for (unsigned a : {4u, 8u, 16u}) {
            table.addRow({"Naive", std::to_string(a), "1",
                          tagMemWidth(a, t, 1, 0, "Naive"),
                          TextTable::num(analytic::naiveHit(a), 2),
                          TextTable::num(analytic::naiveMiss(a), 2)});
        }
        table.addRule();
        for (unsigned a : {4u, 8u, 16u}) {
            // MRU hit depends on f_i: bounded by [2, a + 1].
            table.addRow({"MRU", std::to_string(a), "1",
                          tagMemWidth(a, t, 1, 0, "MRU"),
                          "[2, " + std::to_string(a + 1) + "]",
                          TextTable::num(analytic::mruMiss(a), 2)});
        }
        table.addRule();
        // Partial rows: the paper's k = 4 single-subset 4-way row,
        // the k = 2 8-way row, and the k = 4 two-subset 8-way row,
        // generalized over associativities with the paper's subset
        // rule.
        struct PartialRow
        {
            unsigned a, k, s;
        };
        for (PartialRow row : {PartialRow{4, 4, 1}, PartialRow{8, 2, 1},
                               PartialRow{8, 4, 2},
                               PartialRow{16, 4, 4}}) {
            if ((row.a / row.s) * row.k > t)
                continue; // infeasible at this tag width
            table.addRow(
                {"Partial(k=" + std::to_string(row.k) + ")",
                 std::to_string(row.a), std::to_string(row.s),
                 tagMemWidth(row.a, t, row.s, row.k, "Partial"),
                 TextTable::num(
                     analytic::partialHit(row.a, row.k, row.s), 2),
                 TextTable::num(
                     analytic::partialMiss(row.a, row.k, row.s), 2)});
        }

        std::printf("Table 1 — expected probes per lookup "
                    "(t = %u-bit tags)\n\n",
                    t);
        table.print(std::cout, args.format);

        std::printf("\nOptimum partial-compare width k_opt = "
                    "log2(t) - 1/2 = %.2f bits\n",
                    analytic::kOpt(t));
        std::printf("Subset choice (hits-only): a=4 -> %u, a=8 -> %u, "
                    "a=16 -> %u\n",
                    analytic::chooseSubsets(4, t),
                    analytic::chooseSubsets(8, t),
                    analytic::chooseSubsets(16, t));
        return 0;
    });
}
