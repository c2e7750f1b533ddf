/**
 * @file
 * Quickstart: the smallest complete use of the library.
 *
 * Builds a two-level cache hierarchy (direct-mapped L1, 4-way L2),
 * attaches one probe meter per lookup scheme, streams a synthetic
 * multiprogrammed trace through it, and prints the cost of each
 * implementation of set-associativity in probes per access.
 *
 *   $ ./quickstart [--segments=N]
 */

#include <cstdio>
#include <iostream>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;

int
main(int argc, char **argv)
{
    ArgParser parser("quickstart",
                     "minimal end-to-end use of the library");
    parser.addFlag("segments", "6", "trace segments to simulate");
    return guardedMain("quickstart", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        // 1. A workload: the built-in ATUM-like multiprogrammed
        //    trace (deterministic; ~350k references per segment).
        trace::AtumLikeConfig tcfg;
        tcfg.segments = parser.getUint32("segments");
        trace::AtumLikeGenerator trace(tcfg);

        // 2. A cache hierarchy: 16 KB direct-mapped write-back L1
        //    in front of a 256 KB 4-way LRU write-back L2.
        mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                                  mem::CacheGeometry(262144, 32, 4),
                                  true};
        mem::TwoLevelHierarchy hierarchy(hcfg);

        // 3. Probe meters: one per implementation of
        //    set-associativity. Meters observe the simulation; they
        //    never change its behaviour.
        core::SchemeSpec traditional, naive, mru;
        traditional.kind = core::SchemeKind::Traditional;
        naive.kind = core::SchemeKind::Naive;
        mru.kind = core::SchemeKind::Mru;
        core::SchemeSpec partial = core::SchemeSpec::paperPartial(
            hcfg.l2.assoc());

        std::vector<std::unique_ptr<core::ProbeMeter>> meters;
        for (const core::SchemeSpec &spec :
             {traditional, naive, mru, partial}) {
            meters.push_back(spec.makeMeter());
            hierarchy.addObserver(meters.back().get());
        }

        // 4. Run.
        hierarchy.run(trace);

        // 5. Report.
        const mem::HierarchyStats &s = hierarchy.stats();
        std::printf("Simulated %llu references "
                    "(L1 %s, L2 %s)\n\n",
                    static_cast<unsigned long long>(s.proc_refs),
                    hcfg.l1.name().c_str(), hcfg.l2.name().c_str());
        std::printf("L1 miss ratio:        %.4f\n", s.l1MissRatio());
        std::printf("L2 local miss ratio:  %.4f\n",
                    s.localMissRatio());
        std::printf("Global miss ratio:    %.4f\n",
                    s.globalMissRatio());
        std::printf("Write-back fraction:  %.4f\n\n",
                    s.writeBackFraction());

        TextTable table;
        table.setHeader({"Scheme", "Hit probes", "(stddev)",
                         "Miss probes", "Probes/access"});
        for (const auto &m : meters) {
            table.addRow(
                {m->name(),
                 TextTable::num(m->stats().read_in_hits.mean(), 2),
                 TextTable::num(m->stats().read_in_hits.stddev(), 2),
                 TextTable::num(m->stats().read_in_misses.mean(), 2),
                 TextTable::num(m->stats().totalMean(), 2)});
        }
        table.print(std::cout);
        std::printf("\nLower probes = faster serial lookup. The "
                    "traditional scheme always needs one probe but "
                    "costs an a-wide tag memory and a comparators; "
                    "the others use direct-mapped-style hardware.\n");
        return 0;
    });
}
