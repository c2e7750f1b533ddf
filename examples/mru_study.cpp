/**
 * @file
 * MRU / way-prediction study.
 *
 * The MRU search order of this paper is the ancestor of way
 * prediction: if the first MRU entry is usually right, a cache can
 * speculatively read just that way. This example quantifies the
 * idea on the level-two miss stream: first-probe accuracy (f_1),
 * the probe cost of reduced MRU lists, and the storage each list
 * costs per set — the accuracy/storage trade-off a designer would
 * plot.
 *
 *   $ ./mru_study [--assoc=8] [--segments=6]
 */

#include <cstdio>
#include <iostream>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/bitops.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;

int
main(int argc, char **argv)
{
    ArgParser parser("mru_study",
                     "MRU list length vs accuracy and storage");
    parser.addFlag("segments", "6", "trace segments to simulate");
    parser.addFlag("assoc", "8", "level-two associativity");
    return guardedMain("mru_study", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        unsigned segments = parser.getUint32("segments");
        unsigned assoc = parser.getUint32("assoc");
        fatalIf(!isPow2(assoc) || assoc < 2,
                "--assoc must be a power of two >= 2");

        trace::AtumLikeConfig tcfg;
        tcfg.segments = segments;
        trace::AtumLikeGenerator gen(tcfg);

        mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                                  mem::CacheGeometry(262144, 32,
                                                     assoc),
                                  true};
        mem::TwoLevelHierarchy hier(hcfg);

        std::vector<std::unique_ptr<core::ProbeMeter>> meters;
        std::vector<unsigned> lengths;
        for (unsigned len = 1; len <= assoc; len *= 2)
            lengths.push_back(len % assoc == 0 ? 0 : len); // 0=full
        for (unsigned len : lengths) {
            core::SchemeSpec spec;
            spec.kind = core::SchemeKind::Mru;
            spec.mru_list_len = len;
            meters.push_back(spec.makeMeter());
            hier.addObserver(meters.back().get());
        }
        core::MruDistanceMeter dist(assoc);
        hier.addObserver(&dist);
        hier.run(gen);

        std::printf("MRU study, %u-way 256K-32 L2 behind a 16K-16 "
                    "L1 (%llu read-ins)\n\n",
                    assoc,
                    static_cast<unsigned long long>(
                        hier.stats().read_ins));

        // Way-prediction view: cumulative first-i-probes accuracy.
        std::printf("Prediction accuracy by MRU distance "
                    "(read-in hits):\n\n");
        TextTable acc;
        acc.setHeader({"i", "f_i", "cumulative"});
        double cum = 0.0;
        for (unsigned i = 1; i <= assoc; ++i) {
            cum += dist.f(i);
            acc.addRow({std::to_string(i),
                        TextTable::num(dist.f(i), 4),
                        TextTable::num(cum, 4)});
        }
        acc.print(std::cout);
        std::printf("\nf_1 = %.1f%%: a way predictor reading only "
                    "the MRU way first is right that often.\n\n",
                    100.0 * dist.f(1));

        // Reduced-list trade-off.
        std::printf("Reduced MRU lists — probes vs storage:\n\n");
        TextTable table;
        table.setHeader({"List length", "Hit probes", "Total probes",
                         "Bits/set"});
        unsigned way_bits = log2i(assoc);
        for (std::size_t i = 0; i < meters.size(); ++i) {
            unsigned len = lengths[i] == 0 ? assoc : lengths[i];
            table.addRow(
                {lengths[i] == 0 ? "full (" + std::to_string(assoc) +
                                       ")"
                                 : std::to_string(len),
                 TextTable::num(meters[i]->stats().read_in_hits.mean(),
                                2),
                 TextTable::num(meters[i]->stats().totalMean(), 2),
                 std::to_string(len * way_bits)});
        }
        table.print(std::cout);
        std::printf("\nThe paper's observation: a list of ~a/4 "
                    "entries performs nearly as well as the full "
                    "list, at a fraction of the storage (unless "
                    "full LRU replacement already pays for it).\n");
        return 0;
    });
}
