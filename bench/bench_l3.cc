/**
 * @file
 * Extension experiment: the schemes at a *third* cache level.
 *
 * The abstract targets "level two (or higher) caches in a cache
 * hierarchy"; the paper evaluates only the second level. Here a
 * 4K-16 L1 and a 64K-32 4-way L2 feed an a-way L3, and the same
 * probe meters price the L3 lookups. The L3's reference stream is
 * twice-filtered, so its hit time matters even less per processor
 * reference — and the serial schemes' shapes (probes vs
 * associativity, MRU vs partial crossover) carry over.
 */

#include <cstdio>
#include <iostream>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "mem/third_level.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;

int
main(int argc, char **argv)
{
    ArgParser parser("bench_l3",
                     "the cheap-associativity schemes at a third "
                     "cache level");
    parser.addFlag("l3", "1048576", "level-three bytes");
    parser.addFlag("l3block", "64", "level-three block bytes");
    addCommonFlags(parser);
    return guardedMain("bench_l3", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readCommonFlags(parser);
        std::uint32_t l3_bytes = parser.getUint32("l3");
        std::uint32_t l3_block = parser.getUint32("l3block");

        std::printf("Third-level study: 4K-16 L1, 64K-32 4-way L2, "
                    "%s a-way L3\n\n",
                    cacheName(l3_bytes, l3_block).c_str());

        TextTable table;
        table.setHeader({"L3 assoc", "L3 reqs", "Local miss",
                         "Naive", "MRU", "Partial", "f1"});
        const unsigned assocs[] = {2u, 4u, 8u, 16u};
        // Each associativity is an independent simulation driving
        // the hierarchy directly; fan them out with one row slot
        // per job and print in submission order. The trace is
        // synthesized once and every job replays it from memory.
        const trace::VectorTraceSource::Buffer refs =
            exec::synthesizeAtumTrace(traceConfig(args), args.jobs);
        std::vector<std::vector<std::string>> rows(4);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < 4; ++i) {
            jobs.push_back([&, i] {
                unsigned a = assocs[i];
                trace::VectorTraceSource src(refs);
                mem::HierarchyConfig cfg{
                    mem::CacheGeometry(4096, 16, 1),
                    mem::CacheGeometry(65536, 32, 4), true};
                mem::TwoLevelHierarchy hier(cfg);
                mem::ThirdLevelCache l3(
                    mem::CacheGeometry(l3_bytes, l3_block, a),
                    cfg.l2);
                hier.setMemorySide(&l3);

                core::SchemeSpec naive, mru;
                naive.kind = core::SchemeKind::Naive;
                mru.kind = core::SchemeKind::Mru;
                auto m_naive = naive.makeMeter();
                auto m_mru = mru.makeMeter();
                auto m_part =
                    core::SchemeSpec::paperPartial(a).makeMeter();
                core::MruDistanceMeter dist(a);
                core::MeterBank bank;
                bank.add(m_naive.get());
                bank.add(m_mru.get());
                bank.add(m_part.get());
                l3.addObserver(&bank);
                l3.addObserver(&dist);
                hier.run(src);

                const mem::ThirdLevelStats &ts = l3.stats();
                rows[i] = {
                    std::to_string(a),
                    TextTable::num(ts.read_ins + ts.write_backs),
                    TextTable::num(ts.localMissRatio(), 4),
                    TextTable::num(m_naive->stats().totalMean(), 2),
                    TextTable::num(m_mru->stats().totalMean(), 2),
                    TextTable::num(m_part->stats().totalMean(), 2),
                    TextTable::num(dist.f(1), 3)};
            });
        }
        bench::runJobs(std::move(jobs), args, "l3");
        for (auto &row : rows)
            table.addRow(std::move(row));
        table.print(std::cout, args.format);
        std::printf("\nTotals include zero-probe write-backs (the "
                    "optimization generalizes: the level two keeps "
                    "way hints for its blocks in the level "
                    "three).\n");
        return 0;
    });
}
