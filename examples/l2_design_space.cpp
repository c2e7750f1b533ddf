/**
 * @file
 * Level-two cache design-space explorer.
 *
 * The question the paper leaves the designer with: given a board
 * budget and a workload, which L2 organization and which lookup
 * implementation minimizes the *effective* tag-path time? This
 * example sweeps L2 size x associativity x scheme, combines the
 * measured probe counts with the Table 2 timing model, and ranks
 * the designs by effective access time per L2 request, flagging
 * the package cost of each.
 *
 * The size x associativity grid is embarrassingly parallel: each
 * cell is one independent simulation, run by exec::runJobs on
 * --jobs N worker threads (--jobs 1 = serial).
 *
 *   $ ./l2_design_space [--segments=N] [--tech=sram|dram] [--jobs=N]
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "exec/sweep.h"
#include "hw/impl_model.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;

namespace {

struct Design
{
    std::string cache;
    std::string scheme;
    double local_miss;
    double access_ns;
    int packages;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("l2_design_space",
                     "rank L2 designs by effective tag-path time");
    parser.addFlag("segments", "6", "trace segments to simulate");
    parser.addFlag("tech", "sram", "RAM technology: sram or dram");
    parser.addFlag("l1", "16384", "level-one cache bytes");
    parser.addFlag("jobs", "0",
                   "parallel simulations (0 = all hardware "
                   "threads, 1 = serial)");
    if (!parser.parse(argc, argv))
        return 0;
    return guardedMain("l2_design_space", [&]() -> int {
        unsigned segments =
            static_cast<unsigned>(parser.getUint("segments"));
        std::string tech_name = parser.getString("tech");
        fatalIf(tech_name != "sram" && tech_name != "dram",
                "--tech must be sram or dram");
        hw::RamTech tech = tech_name == "sram" ? hw::RamTech::Sram
                                               : hw::RamTech::Dram;
        std::uint32_t l1_bytes =
            static_cast<std::uint32_t>(parser.getUint("l1"));

        unsigned jobs =
            static_cast<unsigned>(parser.getUint("jobs"));

        hw::Table2Catalog catalog;

        // One job per grid cell, each writing its own slice of the
        // design list; slices are concatenated in submission order
        // after the pool drains, so the ranking input is identical
        // at any job count.
        struct Cell
        {
            std::uint32_t l2_bytes;
            unsigned assoc;
        };
        std::vector<Cell> cells;
        for (std::uint32_t l2_bytes : {65536u, 262144u})
            for (unsigned assoc : {1u, 2u, 4u, 8u})
                cells.push_back({l2_bytes, assoc});

        std::vector<std::vector<Design>> slices(cells.size());
        std::vector<std::function<void()>> cell_jobs;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            cell_jobs.push_back([&, c] {
                const std::uint32_t l2_bytes = cells[c].l2_bytes;
                const unsigned assoc = cells[c].assoc;
                trace::AtumLikeConfig tcfg;
                tcfg.segments = segments;
                trace::AtumLikeGenerator gen(tcfg);

                mem::HierarchyConfig hcfg{
                    mem::CacheGeometry(l1_bytes, 16, 1),
                    mem::CacheGeometry(l2_bytes, 32, assoc), true};
                mem::TwoLevelHierarchy hier(hcfg);

                std::vector<std::unique_ptr<core::ProbeMeter>> meters;
                std::vector<hw::ImplKind> kinds;
                if (assoc == 1) {
                    core::SchemeSpec trad;
                    trad.kind = core::SchemeKind::Traditional;
                    meters.push_back(trad.makeMeter());
                    kinds.push_back(hw::ImplKind::DirectMapped);
                } else {
                    core::SchemeSpec trad, mru;
                    trad.kind = core::SchemeKind::Traditional;
                    mru.kind = core::SchemeKind::Mru;
                    meters.push_back(trad.makeMeter());
                    kinds.push_back(hw::ImplKind::Traditional);
                    meters.push_back(mru.makeMeter());
                    kinds.push_back(hw::ImplKind::Mru);
                    meters.push_back(
                        core::SchemeSpec::paperPartial(assoc)
                            .makeMeter());
                    kinds.push_back(hw::ImplKind::Partial);
                }
                for (auto &m : meters)
                    hier.addObserver(m.get());
                hier.run(gen);

                for (std::size_t i = 0; i < meters.size(); ++i) {
                    const hw::ImplSpec &impl =
                        catalog.get(kinds[i], tech);
                    // Extra serial probes beyond the first access:
                    // x for MRU (probes - 1), y for partial
                    // (probes - s), 0 for the one-probe designs.
                    double extra = 0.0;
                    double probes =
                        meters[i]->stats().readInMean();
                    if (kinds[i] == hw::ImplKind::Mru) {
                        extra = probes - 1.0;
                    } else if (kinds[i] == hw::ImplKind::Partial) {
                        extra = probes -
                                core::SchemeSpec::paperPartial(assoc)
                                    .partial_subsets;
                    }
                    // Label by hardware design: the "Traditional"
                    // lookup on a 1-way cache is the direct-mapped
                    // implementation.
                    std::string label =
                        kinds[i] == hw::ImplKind::DirectMapped
                            ? "Direct-mapped"
                            : meters[i]->name();
                    slices[c].push_back(Design{
                        hcfg.l2.name(), label,
                        hier.stats().localMissRatio(),
                        impl.accessNs(extra), impl.packages});
                }
            });
        }
        exec::runJobs(std::move(cell_jobs), jobs);

        std::vector<Design> designs;
        for (auto &slice : slices)
            designs.insert(designs.end(), slice.begin(), slice.end());

        std::sort(designs.begin(), designs.end(),
                  [](const Design &a, const Design &b) {
                      return a.access_ns < b.access_ns;
                  });

        std::printf("L2 design space, %s, L1 = %u KB "
                    "(sorted by effective tag-path access time):\n\n",
                    hw::ramTechName(tech), l1_bytes / 1024);
        TextTable table;
        table.setHeader({"L2 cache", "Lookup scheme", "Local miss",
                         "Access(ns)", "Packages"});
        for (const Design &d : designs) {
            table.addRow({d.cache, d.scheme,
                          TextTable::num(d.local_miss, 4),
                          TextTable::num(d.access_ns, 1),
                          std::to_string(d.packages)});
        }
        table.print(std::cout);
        std::printf(
            "\nReading guide: the traditional scheme has the lowest "
            "access time but roughly double the packages; the "
            "serial schemes trade probes for board area. Weight "
            "access time by your miss penalty to choose.\n");
        return 0;
    });
}
