/**
 * @file
 * Ablations beyond the paper's figures, exercising the design
 * choices DESIGN.md calls out:
 *
 *  1. Subset-count sweep: probes for every feasible s at fixed
 *     associativity (the paper only reports the chosen s).
 *  2. Write-back-hint accuracy when the level-two cache is small
 *     (inclusion violated often): how safe the "hints, not always
 *     correct" relaxation is.
 *  3. Tag-width sweep for the partial scheme: 8..32-bit tags.
 *  4. Write-back miss allocation policy (allocate vs drop).
 *  5. The Section-2.1 swapping MRU scheme and the Section-1 b*t
 *     intermediate tag-memory widths.
 *  6. Multi-level inclusion enforcement and write-through L1.
 *  7. Cold vs warm caches.
 *  8. Hash-rehash vs 2-way MRU (footnote 2's comparison).
 */

#include <cstdio>
#include <iostream>

#include "core/analytic.h"
#include "core/hash_rehash.h"
#include "core/mru_lookup.h"
#include "core/swap_mru_lookup.h"
#include "core/wide_lookup.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;

namespace {

void
subsetSweep(const CommonArgs &args)
{
    std::printf("Ablation 1 — subset-count sweep (16K-16 L1, "
                "256K-32 8-way L2, t = 16):\n\n");
    TextTable table;
    table.setHeader({"Subsets", "k", "Hits", "Misses", "Total",
                     "TheoryHit", "TheoryMiss"});
    const unsigned a = 8, t = 16;
    struct Point
    {
        unsigned s, k;
    };
    std::vector<Point> points;
    std::vector<RunSpec> specs;
    for (unsigned s = 1; s <= a; s *= 2) {
        unsigned k = core::analytic::partialWidth(a, t, s);
        if (k == 0)
            continue;
        RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(16384, 16, 1),
            mem::CacheGeometry(262144, 32, a), true};
        core::SchemeSpec p;
        p.kind = core::SchemeKind::Partial;
        p.partial_k = k;
        p.partial_subsets = s;
        p.tag_bits = t;
        spec.schemes = {p};
        points.push_back({s, k});
        specs.push_back(spec);
    }
    std::vector<RunOutput> outs =
        bench::runSweep(specs, args, "ablation1");
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const unsigned s = points[i].s, k = points[i].k;
        const RunOutput &out = outs[i];
        table.addRow(
            {std::to_string(s), std::to_string(k),
             TextTable::num(out.probes[0].read_in_hits.mean(), 2),
             TextTable::num(out.probes[0].read_in_misses.mean(), 2),
             TextTable::num(out.probes[0].totalMean(), 2),
             TextTable::num(core::analytic::partialHit(a, k, s), 2),
             TextTable::num(core::analytic::partialMiss(a, k, s),
                            2)});
    }
    table.print(std::cout, args.format);
}

void
hintAccuracy(const CommonArgs &args)
{
    std::printf("\nAblation 2 — write-back-hint accuracy vs "
                "level-two size (4K-16 L1, 4-way L2):\n\n");
    TextTable table;
    table.setHeader({"L2", "SizeRatio", "WB-miss ratio",
                     "Hint accuracy"});
    const std::uint32_t l2_sizes[] = {8u * 1024, 16u * 1024,
                                      64u * 1024, 256u * 1024};
    std::vector<RunSpec> specs;
    for (std::uint32_t l2 : l2_sizes) {
        RunSpec spec;
        spec.hier =
            mem::HierarchyConfig{mem::CacheGeometry(4096, 16, 1),
                                 mem::CacheGeometry(l2, 32, 4), true};
        specs.push_back(spec);
    }
    std::vector<RunOutput> outs =
        bench::runSweep(specs, args, "ablation2");
    std::size_t idx = 0;
    for (std::uint32_t l2 : l2_sizes) {
        const RunOutput &out = outs[idx++];
        double wb = static_cast<double>(out.stats.write_backs);
        double wbmiss =
            wb == 0 ? 0.0 : out.stats.write_back_misses / wb;
        table.addRow({cacheName(l2, 32),
                      std::to_string(l2 / 4096) + "x",
                      TextTable::num(wbmiss, 4),
                      TextTable::num(out.stats.hintAccuracy(), 4)});
    }
    table.print(std::cout, args.format);
}

void
tagWidthSweep(const CommonArgs &args)
{
    std::printf("\nAblation 3 — tag-width sweep for the partial "
                "scheme (16K-16 L1, 256K-32 8-way L2):\n\n");
    TextTable table;
    table.setHeader({"TagBits", "k", "Subsets", "Hits", "Misses",
                     "Total"});
    std::vector<unsigned> widths;
    std::vector<RunSpec> specs;
    for (unsigned t : {8u, 12u, 16u, 24u, 32u}) {
        core::SchemeSpec p;
        try {
            p = core::SchemeSpec::paperPartial(8, t, 2);
        } catch (const FatalError &) {
            continue;
        }
        RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(16384, 16, 1),
            mem::CacheGeometry(262144, 32, 8), true};
        spec.schemes = {p};
        widths.push_back(t);
        specs.push_back(spec);
    }
    std::vector<RunOutput> outs =
        bench::runSweep(specs, args, "ablation3");
    for (std::size_t i = 0; i < outs.size(); ++i) {
        unsigned t = widths[i];
        const core::SchemeSpec &p = specs[i].schemes[0];
        const RunOutput &out = outs[i];
        table.addRow(
            {std::to_string(t), std::to_string(p.partial_k),
             std::to_string(p.partial_subsets),
             TextTable::num(out.probes[0].read_in_hits.mean(), 2),
             TextTable::num(out.probes[0].read_in_misses.mean(), 2),
             TextTable::num(out.probes[0].totalMean(), 2)});
    }
    table.print(std::cout, args.format);
}

void
wbAllocationPolicy(const CommonArgs &args)
{
    std::printf("\nAblation 4 — write-back miss policy with a small "
                "level two (4K-16 L1, 16K-32 4-way L2):\n\n");
    TextTable table;
    table.setHeader({"Policy", "Local miss", "Global miss",
                     "WB-miss count"});
    std::vector<RunSpec> specs;
    for (bool allocate : {true, false}) {
        RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(4096, 16, 1),
            mem::CacheGeometry(16384, 32, 4), allocate};
        specs.push_back(spec);
    }
    std::vector<RunOutput> outs =
        bench::runSweep(specs, args, "ablation4");
    std::size_t idx = 0;
    for (bool allocate : {true, false}) {
        const RunOutput &out = outs[idx++];
        table.addRow(
            {allocate ? "allocate" : "drop",
             TextTable::num(out.stats.localMissRatio(), 4),
             TextTable::num(out.stats.globalMissRatio(), 4),
             TextTable::num(out.stats.write_back_misses)});
    }
    table.print(std::cout, args.format);
}

void
swapMruAndWideWidths(const CommonArgs &args)
{
    std::printf("\nAblation 5 — swapping MRU and intermediate "
                "tag-memory widths b*t (16K-16 L1, 256K-32 8-way "
                "L2):\n\n");

    const unsigned a = 8;
    trace::AtumLikeGenerator gen(traceConfig(args));
    mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, a),
                              true};
    mem::TwoLevelHierarchy hier(hcfg);

    core::MeterConfig mcfg;
    std::vector<std::unique_ptr<core::ProbeMeter>> meters;
    auto *swap_raw = new core::SwapMruLookup();
    meters.push_back(std::make_unique<core::ProbeMeter>(
        std::unique_ptr<core::LookupStrategy>(swap_raw), mcfg));
    meters.push_back(std::make_unique<core::ProbeMeter>(
        std::make_unique<core::MruLookup>(), mcfg));
    for (unsigned b : {1u, 2u, 4u, 8u}) {
        meters.push_back(std::make_unique<core::ProbeMeter>(
            std::make_unique<core::WideNaiveLookup>(b), mcfg));
        meters.push_back(std::make_unique<core::ProbeMeter>(
            std::make_unique<core::WideMruLookup>(b), mcfg));
    }
    for (auto &m : meters)
        hier.addObserver(m.get());
    hier.run(gen);

    TextTable table;
    table.setHeader({"Scheme", "Hits", "Misses", "Total", "Note"});
    double accesses = static_cast<double>(hier.stats().read_ins +
                                          hier.stats().write_backs);
    for (const auto &m : meters) {
        std::string note;
        if (m->name() == "SwapMRU") {
            double spa = static_cast<double>(swap_raw->swaps()) /
                         accesses;
            note = TextTable::num(spa, 2) +
                   " block moves per access";
        } else if (m->name() == "WideNaive-8") {
            note = "= traditional (b = a)";
        } else if (m->name() == "WideNaive-1") {
            note = "= naive";
        }
        table.addRow(
            {m->name(),
             TextTable::num(m->stats().read_in_hits.mean(), 2),
             TextTable::num(m->stats().read_in_misses.mean(), 2),
             TextTable::num(m->stats().totalMean(), 2), note});
    }
    table.print(std::cout, args.format);
    std::printf("\nSwapMRU saves the MRU scheme's list-read probe "
                "but needs the printed volume of tag+data block "
                "moves: the paper's viability concern, "
                "quantified.\n");
}

void
inclusionAndWritePolicy(const CommonArgs &args)
{
    std::printf("\nAblation 6 — inclusion enforcement and level-one "
                "write policy (16K-16 L1, 256K-32 4-way L2):\n\n");
    TextTable table;
    table.setHeader({"Variant", "L1 miss", "Local miss", "L2 reqs",
                     "WB misses", "L1 invals"});
    struct Variant
    {
        const char *name;
        bool inclusion;
        mem::L1WritePolicy policy;
    };
    const std::vector<Variant> variants = {
        {"write-back (paper)", false, mem::L1WritePolicy::WriteBack},
        {"write-back + inclusion", true,
         mem::L1WritePolicy::WriteBack},
        {"write-through", false, mem::L1WritePolicy::WriteThrough}};

    // These variants drive the hierarchy directly (no RunSpec), so
    // they go through the generic job runner: one stats slot per
    // variant, filled independently, printed in order.
    std::vector<mem::HierarchyStats> stats(variants.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        jobs.push_back([&, i] {
            trace::AtumLikeGenerator gen(traceConfig(args));
            mem::HierarchyConfig hcfg{
                mem::CacheGeometry(16384, 16, 1),
                mem::CacheGeometry(262144, 32, 4), true};
            hcfg.enforce_inclusion = variants[i].inclusion;
            hcfg.write_policy = variants[i].policy;
            mem::TwoLevelHierarchy hier(hcfg);
            hier.run(gen);
            stats[i] = hier.stats();
        });
    }
    bench::runJobs(std::move(jobs), args, "ablation6");
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Variant &v = variants[i];
        const mem::HierarchyStats &s = stats[i];
        table.addRow({v.name, TextTable::num(s.l1MissRatio(), 4),
                      TextTable::num(s.localMissRatio(), 4),
                      TextTable::num(s.read_ins + s.write_backs),
                      TextTable::num(s.write_back_misses),
                      TextTable::num(s.inclusion_invalidations)});
    }
    table.print(std::cout, args.format);
    std::printf("\nInclusion enforcement removes write-back misses "
                "at almost no miss-ratio cost (the paper's "
                "extrapolation); write-through multiplies level-two "
                "traffic ([Shor88]'s conclusion).\n");
}

void
warmVsCold(const CommonArgs &args)
{
    std::printf("\nAblation 7 — cold-start flushes between "
                "sub-traces (16K-16 L1, 256K-32 4-way L2):\n\n");
    TextTable table;
    table.setHeader({"Trace", "L1 miss", "Local miss", "Global"});
    const bool flushes[] = {true, false};
    std::vector<mem::HierarchyStats> stats(2);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < 2; ++i) {
        jobs.push_back([&, i] {
            trace::AtumLikeConfig tcfg = traceConfig(args);
            tcfg.flush_between_segments = flushes[i];
            trace::AtumLikeGenerator gen(tcfg);
            mem::HierarchyConfig hcfg{
                mem::CacheGeometry(16384, 16, 1),
                mem::CacheGeometry(262144, 32, 4), true};
            mem::TwoLevelHierarchy hier(hcfg);
            hier.run(gen);
            stats[i] = hier.stats();
        });
    }
    bench::runJobs(std::move(jobs), args, "ablation7");
    for (std::size_t i = 0; i < 2; ++i) {
        bool flush = flushes[i];
        const mem::HierarchyStats &s = stats[i];
        table.addRow({flush ? "cold (paper)" : "warm",
                      TextTable::num(s.l1MissRatio(), 4),
                      TextTable::num(s.localMissRatio(), 4),
                      TextTable::num(s.globalMissRatio(), 4)});
    }
    table.print(std::cout, args.format);
    std::printf("\nThe paper: \"limited 'warmer' results were "
                "found to be similar, except that the miss ratios "
                "were smaller.\"\n");
}

void
replacementPolicies(const CommonArgs &args)
{
    std::printf("\nAblation 9 — level-two replacement policy "
                "(16K-16 L1, 256K-32 4-way L2):\n\n");
    TextTable table;
    table.setHeader({"Policy", "Local miss", "Global miss",
                     "MRU probes", "Extra state/set"});
    const mem::ReplPolicy policies[] = {
        mem::ReplPolicy::Lru, mem::ReplPolicy::TreePlru,
        mem::ReplPolicy::Fifo, mem::ReplPolicy::Random};
    std::vector<RunSpec> specs;
    for (mem::ReplPolicy p : policies) {
        RunSpec spec;
        spec.hier.l2_replacement = p;
        core::SchemeSpec mru;
        mru.kind = core::SchemeKind::Mru;
        spec.schemes = {mru};
        specs.push_back(spec);
    }
    std::vector<RunOutput> outs =
        bench::runSweep(specs, args, "ablation9");
    std::size_t idx = 0;
    for (mem::ReplPolicy p : policies) {
        const RunOutput &out = outs[idx++];
        const char *state = "none";
        if (p == mem::ReplPolicy::Lru)
            state = "full LRU list (shared with MRU scheme)";
        else if (p == mem::ReplPolicy::TreePlru)
            state = "a-1 tree bits";
        else if (p == mem::ReplPolicy::Fifo)
            state = "fill pointer";
        table.addRow(
            {mem::replPolicyName(p),
             TextTable::num(out.stats.localMissRatio(), 4),
             TextTable::num(out.stats.globalMissRatio(), 4),
             TextTable::num(out.probes[0].totalMean(), 2), state});
    }
    table.print(std::cout, args.format);
    std::printf("\nThe paper picks LRU because its per-set state "
                "doubles as the MRU scheme's search list; random "
                "replacement is cheaper in state but costs miss "
                "ratio (and would make the MRU scheme pay for its "
                "own list).\n");
}

void
hashRehashVsTwoWay(const CommonArgs &args)
{
    std::printf("\nAblation 8 — hash-rehash vs 2-way swapping MRU "
                "(footnote 2), 16K-16 L1, 256K-32 L2, equal "
                "capacity, read-ins:\n\n");

    trace::AtumLikeGenerator gen(traceConfig(args));
    mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                              mem::CacheGeometry(262144, 32, 2),
                              true};
    mem::TwoLevelHierarchy hier(hcfg);

    core::MeterConfig mcfg;
    auto *swap_raw = new core::SwapMruLookup();
    core::ProbeMeter swap_meter(
        std::unique_ptr<core::LookupStrategy>(swap_raw), mcfg);
    core::ProbeMeter mru_meter(std::make_unique<core::MruLookup>(),
                               mcfg);
    core::HashRehashShadow rehash(262144 / 32);
    hier.addObserver(&swap_meter);
    hier.addObserver(&mru_meter);
    hier.addObserver(&rehash);
    hier.run(gen);

    double ri = static_cast<double>(hier.stats().read_ins);
    double two_way_hr = hier.stats().read_in_hits / ri;

    TextTable table;
    table.setHeader({"Organization", "Hit ratio", "Hit probes",
                     "Miss probes", "Total", "Swaps/read-in"});
    MeanAccum swap_all = swap_meter.stats().read_in_hits;
    mergeStats(swap_all, swap_meter.stats().read_in_misses);
    MeanAccum mru_all = mru_meter.stats().read_in_hits;
    mergeStats(mru_all, mru_meter.stats().read_in_misses);
    table.addRow(
        {"2-way swap-MRU", TextTable::num(two_way_hr, 4),
         TextTable::num(swap_meter.stats().read_in_hits.mean(), 2),
         TextTable::num(swap_meter.stats().read_in_misses.mean(), 2),
         TextTable::num(swap_all.mean(), 2),
         TextTable::num(static_cast<double>(swap_raw->swaps()) / ri,
                        2)});
    table.addRow(
        {"2-way list-MRU", TextTable::num(two_way_hr, 4),
         TextTable::num(mru_meter.stats().read_in_hits.mean(), 2),
         TextTable::num(mru_meter.stats().read_in_misses.mean(), 2),
         TextTable::num(mru_all.mean(), 2), "0.00"});
    table.addRow(
        {"hash-rehash DM",
         TextTable::num(rehash.hits().ratio(), 4),
         TextTable::num(rehash.hitProbes().mean(), 2),
         TextTable::num(rehash.missProbes().mean(), 2),
         TextTable::num(rehash.totalProbes(), 2),
         TextTable::num(static_cast<double>(rehash.swaps()) / ri,
                        2)});
    table.print(std::cout, args.format);
    std::printf("\nFootnote 2: for 2-way associativity, "
                "hash-rehash (a probed-twice direct-mapped array) "
                "can beat the MRU schemes — it swaps only on rehash "
                "hits and misses, not on every recency change.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("bench_ablation",
                     "Ablations: subsets, hints, tag widths, "
                     "write-back policy, swap-MRU, wide tag "
                     "memories, inclusion, warm caches");
    addSweepFlags(parser);
    return guardedMain("bench_ablation", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);
        // A journal checkpoints one sweep and a JSON file holds one;
        // each ablation runs its own. bench::runSweep needs every
        // point, so a failed job cannot become a gap.
        if (!args.journal_path.empty() || !args.resume_path.empty())
            throwError(Error::usage("bench_ablation runs several sweeps: "
                                    "--journal and --resume are refused"));
        if (!args.json_path.empty())
            throwError(Error::usage("bench_ablation runs several sweeps: "
                                    "--json is refused"));
        if (args.keep_going)
            throwError(Error::usage("bench_ablation needs every sweep "
                                    "point: --keep-going is refused"));
        subsetSweep(args);
        hintAccuracy(args);
        tagWidthSweep(args);
        wbAllocationPolicy(args);
        swapMruAndWideWidths(args);
        inclusionAndWritePolicy(args);
        warmVsCold(args);
        hashRehashVsTwoWay(args);
        replacementPolicies(args);
        return 0;
    });
}
