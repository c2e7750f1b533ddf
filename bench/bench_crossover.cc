/**
 * @file
 * The crossover experiment the paper's introduction argues for but
 * never plots: at what miss penalty does a 4-way level-two cache
 * with a *cheap serial* lookup beat a direct-mapped level two?
 *
 * "Wide associativity is important when (1) miss times are very
 * long or (2) memory and memory interconnect contention delay is
 * significant." We sweep the memory service time and compose
 * measured miss ratios and probe counts with the Table 2 timing
 * model (SRAM designs) into time-per-processor-reference.
 */

#include <cstdio>
#include <iostream>

#include "hw/effective.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;
using namespace assoc::hw;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_crossover",
                     "direct-mapped vs cheap-associative level two "
                     "as the miss penalty grows");
    parser.addFlag("l1", "16384", "level-one bytes");
    parser.addFlag("l2", "262144", "level-two bytes");
    addSweepFlags(parser);
    return guardedMain("bench_crossover", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);
        // bench::runSweep needs every point: the crossover compares
        // all four designs, so a failed job cannot become a gap.
        if (args.keep_going)
            throwError(Error::usage("bench_crossover needs every sweep "
                                    "point: --keep-going is refused"));
        std::uint32_t l1_bytes = parser.getUint32("l1");
        std::uint32_t l2_bytes = parser.getUint32("l2");

        Table2Catalog catalog;

        // Measure each design once.
        struct Design
        {
            std::string name;
            ImplKind impl;
            unsigned assoc;
            EffectiveInputs in;
        };
        std::vector<Design> designs = {
            {"DM L2", ImplKind::DirectMapped, 1, {}},
            {"4-way traditional", ImplKind::Traditional, 4, {}},
            {"4-way MRU", ImplKind::Mru, 4, {}},
            {"4-way partial", ImplKind::Partial, 4, {}},
        };

        std::vector<RunSpec> specs;
        std::vector<unsigned> subsets_per_design;
        for (Design &d : designs) {
            RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(l1_bytes, 16, 1),
                mem::CacheGeometry(l2_bytes, 32, d.assoc), true};
            core::SchemeSpec scheme;
            unsigned subsets = 1;
            switch (d.impl) {
              case ImplKind::Mru:
                scheme.kind = core::SchemeKind::Mru;
                break;
              case ImplKind::Partial:
                scheme = core::SchemeSpec::paperPartial(d.assoc);
                subsets = scheme.partial_subsets;
                break;
              default:
                scheme.kind = core::SchemeKind::Traditional;
                break;
            }
            spec.schemes = {scheme};
            specs.push_back(spec);
            subsets_per_design.push_back(subsets);
        }
        std::vector<RunOutput> outs =
            bench::runSweep(specs, args, "crossover");
        maybeWriteSweepJson(args, specs, outs);

        for (std::size_t i = 0; i < designs.size(); ++i) {
            Design &d = designs[i];
            const RunOutput &out = outs[i];
            unsigned subsets = subsets_per_design[i];

            d.in.l1_miss_ratio = out.stats.l1MissRatio();
            double ri =
                static_cast<double>(out.stats.read_ins);
            d.in.l2_miss_ratio =
                ri == 0 ? 0.0 : out.stats.read_in_misses / ri;
            if (d.impl == ImplKind::Mru) {
                d.in.extra_hit_probes =
                    out.probes[0].read_in_hits.mean() - 1.0;
                d.in.extra_miss_probes =
                    out.probes[0].read_in_misses.mean() - 1.0;
            } else if (d.impl == ImplKind::Partial) {
                d.in.extra_hit_probes =
                    out.probes[0].read_in_hits.mean() - subsets;
                d.in.extra_miss_probes =
                    out.probes[0].read_in_misses.mean() - subsets;
            }
            std::printf("%-18s l1mr=%.4f l2mr=%.4f extra probes "
                        "hit=%.2f miss=%.2f\n",
                        d.name.c_str(), d.in.l1_miss_ratio,
                        d.in.l2_miss_ratio, d.in.extra_hit_probes,
                        d.in.extra_miss_probes);
        }

        std::printf("\nTime per processor reference (ns), SRAM "
                    "tag-path designs, vs memory service time:\n\n");
        TextTable table;
        table.setHeader({"memory(ns)", "DM L2", "4w trad", "4w MRU",
                         "4w partial", "winner"});
        for (double mem_ns :
             {100.0, 200.0, 400.0, 600.0, 1000.0, 2000.0, 4000.0}) {
            SystemTimings sys;
            sys.memory_ns = mem_ns;
            std::vector<double> eat;
            for (const Design &d : designs) {
                const ImplSpec &impl =
                    catalog.get(d.impl, RamTech::Sram);
                eat.push_back(
                    effectiveAccess(impl, d.in, sys).per_ref_ns);
            }
            std::size_t best = 0;
            for (std::size_t i = 1; i < eat.size(); ++i)
                if (eat[i] < eat[best])
                    best = i;
            table.addRow({TextTable::num(mem_ns, 0),
                          TextTable::num(eat[0], 1),
                          TextTable::num(eat[1], 1),
                          TextTable::num(eat[2], 1),
                          TextTable::num(eat[3], 1),
                          designs[best].name});
        }
        table.print(std::cout, args.format);
        std::printf("\nAs the miss penalty grows, the lower miss "
                    "ratio of 4-way associativity pays for the "
                    "serial schemes' extra probes — with half the "
                    "packages of the traditional design "
                    "(Table 2).\n");
        return 0;
    });
}
