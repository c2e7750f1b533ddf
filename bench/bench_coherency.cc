/**
 * @file
 * Tests footnote 1 of the paper: under frequent coherency
 * invalidations, wider associativity keeps more of the cache
 * usefully full, because an invalidated (empty) frame anywhere in
 * a set can be reused by the next miss to that set, whereas a
 * direct-mapped cache can refill an invalidated frame only when a
 * miss maps to exactly that frame.
 *
 * Sweeps invalidation rate x level-two associativity, reporting
 * average occupancy (valid-frame fraction, sampled periodically)
 * and the local miss ratio.
 */

#include <cstdio>
#include <iostream>

#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_coherency",
                     "cache utilization under coherency "
                     "invalidations vs associativity");
    addCommonFlags(parser);
    return guardedMain("bench_coherency", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readCommonFlags(parser);

        std::printf("Coherency-invalidation study "
                    "(16K-16 L1, 256K-32 L2)\n\n");

        const double rates[] = {0.0, 0.001, 0.005, 0.02};
        const unsigned assocs[] = {1u, 2u, 4u, 8u};
        std::vector<RunSpec> specs;
        for (double rate : rates)
            for (unsigned a : assocs) {
                RunSpec &spec = specs.emplace_back();
                spec.hier = {mem::CacheGeometry(16384, 16, 1),
                             mem::CacheGeometry(262144, 32, a), true};
                spec.coherency_rate = rate;
                spec.occupancy_sample_period = 10000;
            }
        std::vector<RunOutput> outs =
            bench::runSweep(specs, args, "coherency");

        const RunOutput *out = outs.data();
        for (double rate : rates) {
            TextTable table;
            table.setHeader({"Assoc", "Invalidations", "Occupancy",
                             "Local miss"});
            for (unsigned a : assocs) {
                table.addRow(
                    {std::to_string(a),
                     TextTable::num(out->stats.coherency_invalidations),
                     TextTable::num(out->mean_occupancy, 4),
                     TextTable::num(out->stats.localMissRatio(), 4)});
                ++out;
            }
            std::printf("Invalidation rate %.3f per reference:\n\n",
                        rate);
            table.print(std::cout, args.format);
            std::printf("\n");
        }
        std::printf("Higher associativity keeps occupancy higher "
                    "under invalidations (footnote 1's claim): "
                    "empty frames are reusable by any miss to the "
                    "set.\n");
        return 0;
    });
}
