/**
 * @file
 * Reproduces Table 3: the trace and cache configuration summary —
 * in particular the miss ratios of the three level-one caches
 * (paper: 0.1181 for 4K-16, 0.0657 for 16K-16, 0.0513 for 16K-32)
 * and the overall trace statistics (8M+ references, 23 sub-traces).
 */

#include <cstdio>
#include <iostream>

#include "support.h"
#include "trace/trace_stats.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_table3",
                     "Table 3: trace summary and level-one cache "
                     "miss ratios");
    addCommonFlags(parser);
    return guardedMain("bench_table3", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readCommonFlags(parser);
        trace::AtumLikeConfig tcfg = traceConfig(args);

        std::printf("Table 3 — trace-driven two-level cache "
                    "simulation setup\n\n");

        {
            trace::AtumLikeGenerator gen(tcfg);
            trace::TraceStats ts = trace::collectStats(gen, 32);
            std::printf("Synthetic ATUM-like trace (%u segments of "
                        "%llu refs):\n",
                        tcfg.segments,
                        static_cast<unsigned long long>(
                            tcfg.refs_per_segment));
            ts.print(std::cout);
            std::printf("\n");
        }

        TextTable table;
        table.setHeader({"L1 cache", "Miss ratio",
                         "Paper miss ratio"});
        struct L1
        {
            std::uint32_t bytes, block;
            const char *paper;
        };
        for (L1 l1 : {L1{4096, 16, "0.1181"}, L1{16384, 16, "0.0657"},
                      L1{16384, 32, "0.0513"}}) {
            trace::AtumLikeGenerator gen(tcfg);
            RunSpec spec;
            spec.hier = mem::HierarchyConfig{
                mem::CacheGeometry(l1.bytes, l1.block, 1),
                mem::CacheGeometry(262144, 32, 4), true};
            RunOutput out = runTrace(gen, spec);
            table.addRow({cacheName(l1.bytes, l1.block),
                          TextTable::num(out.stats.l1MissRatio(), 4),
                          l1.paper});
        }
        std::printf("Level-one cache miss ratios (direct-mapped, "
                    "write-back):\n\n");
        table.print(std::cout, args.format);
        return 0;
    });
}
