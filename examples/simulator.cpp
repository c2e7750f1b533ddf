/**
 * @file
 * The omnibus simulator driver: every knob of the library on one
 * command line. Configure the hierarchy, pick the lookup schemes to
 * price, choose the workload, and get the paper-style report.
 *
 *   # the paper's Figure 3 configuration, all four schemes
 *   $ ./simulator
 *
 *   # 8-way with a third level, reduced-MRU and tuned partial
 *   $ ./simulator --l2=256K-32:8 --l3=1M-64:8 \
 *                 --schemes=mru:2,partial:k=4;s=2;tr=improved
 *
 *   # a trace file, FIFO replacement, inclusion enforced
 *   $ ./simulator --trace=run.din --policy=fifo --inclusion
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/probe_meter.h"
#include "mem/third_level.h"
#include "sim/config_parse.h"
#include "sim/runner.h"
#include "trace/atum_like.h"
#include "trace/trace_file.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;

namespace {

std::unique_ptr<trace::TraceSource>
openWorkload(const std::string &spec, unsigned segments,
             std::uint64_t seed)
{
    if (spec == "atum") {
        trace::AtumLikeConfig cfg;
        cfg.segments = segments;
        if (seed != 0)
            cfg.seed = seed;
        return std::make_unique<trace::AtumLikeGenerator>(cfg);
    }
    return trace::openTraceFile(spec);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("simulator",
                     "configurable two/three-level simulation with "
                     "probe accounting");
    parser.addFlag("trace", "atum",
                   "'atum' (built-in generator) or a .din/.ftr file");
    parser.addFlag("segments", "6", "segments for the generator");
    parser.addFlag("seed", "0", "generator seed (0 = default)");
    parser.addFlag("l1", "16K-16", "level-one spec SIZE-BLOCK");
    parser.addFlag("l2", "256K-32:4",
                   "level-two spec SIZE-BLOCK:ASSOC");
    parser.addFlag("l3", "",
                   "optional level-three spec SIZE-BLOCK:ASSOC");
    parser.addFlag("schemes", "traditional,naive,mru,partial",
                   "comma-separated lookup schemes to price");
    parser.addFlag("tagbits", "16", "stored tag width t");
    parser.addFlag("policy", "lru",
                   "L2 replacement: lru, fifo or random");
    parser.addSwitch("inclusion", "enforce multi-level inclusion");
    parser.addSwitch("write-through", "write-through level one");
    parser.addSwitch("no-wbopt",
                     "disable the write-back optimization");
    parser.addFlag("coherency", "0",
                   "remote invalidations per reference");
    return guardedMain("simulator", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        auto workload = openWorkload(
            parser.getString("trace"),
            parser.getUint32("segments"),
            parser.getUint("seed"));

        unsigned tag_bits = parser.getUint32("tagbits");
        mem::HierarchyConfig hcfg{
            sim::parseCacheSpec(parser.getString("l1")),
            sim::parseCacheSpec(parser.getString("l2")), true};
        fatalIf(hcfg.l1.assoc() != 1,
                "the level one is direct-mapped in this model");
        hcfg.enforce_inclusion = parser.getBool("inclusion");
        if (parser.getBool("write-through"))
            hcfg.write_policy = mem::L1WritePolicy::WriteThrough;
        hcfg.l2_replacement =
            sim::parseReplPolicy(parser.getString("policy"));

        std::vector<sim::ParsedScheme> schemes =
            sim::parseSchemeList(parser.getString("schemes"),
                                 hcfg.l2.assoc(), tag_bits);
        bool wb_opt = !parser.getBool("no-wbopt");

        mem::TwoLevelHierarchy hier(hcfg);
        std::unique_ptr<mem::ThirdLevelCache> l3;
        std::vector<std::unique_ptr<core::ProbeMeter>> meters;
        std::vector<std::unique_ptr<core::ProbeMeter>> l3_meters;

        core::MeterConfig mcfg;
        mcfg.tag_bits = tag_bits;
        mcfg.wb_optimization = wb_opt;
        for (const sim::ParsedScheme &s : schemes) {
            meters.push_back(std::make_unique<core::ProbeMeter>(
                s.makeStrategy(), mcfg));
            hier.addObserver(meters.back().get());
        }
        if (!parser.getString("l3").empty()) {
            l3 = std::make_unique<mem::ThirdLevelCache>(
                sim::parseCacheSpec(parser.getString("l3")), hcfg.l2,
                hcfg.l2_replacement);
            hier.setMemorySide(l3.get());
            for (const sim::ParsedScheme &s : schemes) {
                l3_meters.push_back(
                    std::make_unique<core::ProbeMeter>(
                        s.makeStrategy(), mcfg));
                l3->addObserver(l3_meters.back().get());
            }
        }

        double coherency = parser.getDouble("coherency");
        if (coherency == 0.0) {
            hier.run(*workload);
        } else {
            mem::CoherencyTraffic remote(coherency);
            trace::MemRef r;
            workload->reset();
            while (workload->next(r)) {
                hier.access(r);
                remote.step(hier);
            }
            trace::throwIfFailed(*workload);
        }

        const mem::HierarchyStats &st = hier.stats();
        std::printf("L1 %s | L2 %s (%s)%s%s%s\n",
                    hcfg.l1.name().c_str(), hcfg.l2.name().c_str(),
                    mem::replPolicyName(hcfg.l2_replacement),
                    l3 ? (" | L3 " + l3->cache().geom().name())
                             .c_str()
                       : "",
                    hcfg.enforce_inclusion ? " | inclusion" : "",
                    hcfg.write_policy ==
                            mem::L1WritePolicy::WriteThrough
                        ? " | write-through"
                        : "");
        std::printf("refs %llu | L1 miss %.4f | local %.4f | global "
                    "%.4f | wb %.4f | hints %.4f\n\n",
                    static_cast<unsigned long long>(st.proc_refs),
                    st.l1MissRatio(), st.localMissRatio(),
                    st.globalMissRatio(), st.writeBackFraction(),
                    st.hintAccuracy());

        auto report = [&](const char *title, const auto &ms) {
            std::printf("%s\n\n", title);
            TextTable t;
            t.setHeader({"Scheme", "Hits", "(sd)", "Misses",
                         "Total"});
            for (const auto &m : ms) {
                t.addRow(
                    {m->name(),
                     TextTable::num(m->stats().read_in_hits.mean(),
                                    2),
                     TextTable::num(
                         m->stats().read_in_hits.stddev(), 2),
                     TextTable::num(
                         m->stats().read_in_misses.mean(), 2),
                     TextTable::num(m->stats().totalMean(), 2)});
            }
            t.print(std::cout);
            std::printf("\n");
        };
        report("Level-two lookup probes:", meters);
        if (l3) {
            std::printf("L3 local miss %.4f | L3 wb fraction "
                        "%.4f\n\n",
                        l3->stats().localMissRatio(),
                        l3->stats().writeBackFraction());
            report("Level-three lookup probes:", l3_meters);
        }
        return 0;
    });
}
