/**
 * @file
 * Multiprocessor-flavoured scenario: the workload the paper's
 * introduction motivates ("caches in multiprocessors designed to
 * reduce memory interconnection traffic").
 *
 * Simulates one node of a shared-memory machine: the local two-level
 * hierarchy runs the ATUM-like trace while remote processors
 * invalidate shared blocks at a configurable rate. Reports, per
 * level-two associativity: interconnect traffic (read-ins that go
 * to the network), cache occupancy under invalidations, and the
 * probes each cheap lookup scheme would pay — the three quantities
 * whose product motivates cheap wide associativity.
 *
 *   $ ./coherency_sim [--rate=0.005] [--segments=4]
 */

#include <cstdio>
#include <iostream>

#include "sim/runner.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;

int
main(int argc, char **argv)
{
    ArgParser parser("coherency_sim",
                     "one multiprocessor node under remote "
                     "invalidations");
    parser.addFlag("segments", "4", "trace segments to simulate");
    parser.addFlag("rate", "0.005",
                   "remote invalidations per processor reference");
    return guardedMain("coherency_sim", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        unsigned segments = parser.getUint32("segments");
        double rate = parser.getDouble("rate");

        std::printf("One node: 16K-16 L1 + 256K-32 L2, remote "
                    "invalidation rate %.4f/ref\n\n",
                    rate);

        TextTable table;
        table.setHeader({"L2 assoc", "Net reqs/1k refs", "Occupancy",
                         "MRU probes", "Partial probes",
                         "Invalidations"});
        for (unsigned a : {1u, 2u, 4u, 8u}) {
            trace::AtumLikeConfig tcfg;
            tcfg.segments = segments;
            trace::AtumLikeGenerator gen(tcfg);

            sim::RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(16384, 16, 1),
                mem::CacheGeometry(262144, 32, a), true};
            if (a > 1) {
                core::SchemeSpec mru;
                mru.kind = core::SchemeKind::Mru;
                spec.schemes = {mru,
                                core::SchemeSpec::paperPartial(a)};
            } else {
                core::SchemeSpec trad;
                trad.kind = core::SchemeKind::Traditional;
                spec.schemes = {trad, trad};
            }
            spec.coherency_rate = rate;
            spec.occupancy_sample_period = 10000;
            sim::RunOutput out = sim::runTrace(gen, spec);

            // Interconnect traffic: level-two misses go to the
            // network (reads) — the quantity multiprocessors must
            // minimize.
            double net_per_1k =
                1000.0 *
                static_cast<double>(out.stats.read_in_misses) /
                static_cast<double>(out.stats.proc_refs);
            table.addRow(
                {a == 1 ? "DM" : std::to_string(a) + "-way",
                 TextTable::num(net_per_1k, 2),
                 TextTable::num(out.mean_occupancy, 4),
                 TextTable::num(out.probes[0].totalMean(), 2),
                 TextTable::num(out.probes[1].totalMean(), 2),
                 TextTable::num(out.stats.coherency_invalidations)});
        }
        table.print(std::cout);
        std::printf(
            "\nThe multiprocessor argument in one table: wider "
            "associativity cuts network requests and keeps the "
            "cache fuller under invalidations; the serial schemes "
            "price that associativity at direct-mapped hardware "
            "cost, paying only the printed probe counts per local "
            "L2 access.\n");
        return 0;
    });
}
