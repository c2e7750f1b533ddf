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
 *  9. Level-two replacement policy.
 *
 * Each ablation appends its points to one sweep, which synthesizes
 * the trace once, and returns the printer for its table. Two runs
 * stay outside the sweep: ablation 7's warm row needs a trace
 * without flush markers, and ablation 8's hash-rehash shadow would
 * be fed twice by a retried sweep job.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <utility>

#include "core/analytic.h"
#include "core/hash_rehash.h"
#include "core/mru_lookup.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;

namespace {

/** Prints one ablation's table, given its first sweep output. */
using Printer = std::function<void(const RunOutput *)>;

/** A direct-mapped @p l1-byte L1 with 16-byte blocks over an
 *  @p a-way @p l2-byte L2 with 32-byte blocks. */
RunSpec
point(std::uint32_t l1, std::uint32_t l2, unsigned a)
{
    RunSpec spec;
    spec.hier = mem::HierarchyConfig{mem::CacheGeometry(l1, 16, 1),
                                     mem::CacheGeometry(l2, 32, a), true};
    return spec;
}

core::SchemeSpec
scheme(core::SchemeKind kind, unsigned width = 1)
{
    core::SchemeSpec spec;
    spec.kind = kind;
    spec.width = width;
    return spec;
}

Printer
subsetSweep(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    const unsigned a = 8, t = 16;
    std::vector<std::pair<unsigned, unsigned>> points; // (s, k)
    for (unsigned s = 1; s <= a; s *= 2) {
        unsigned k = core::analytic::partialWidth(a, t, s);
        if (k == 0)
            continue;
        RunSpec spec = point(16384, 262144, a);
        core::SchemeSpec p = scheme(core::SchemeKind::Partial);
        p.partial_k = k;
        p.partial_subsets = s;
        p.tag_bits = t;
        spec.schemes = {p};
        points.emplace_back(s, k);
        specs.push_back(spec);
    }
    return [=, &args](const RunOutput *outs) {
        std::printf("Ablation 1 — subset-count sweep (16K-16 L1, "
                    "256K-32 8-way L2, t = 16):\n\n");
        TextTable table;
        table.setHeader({"Subsets", "k", "Hits", "Misses", "Total",
                         "TheoryHit", "TheoryMiss"});
        for (auto [s, k] : points) {
            const core::ProbeStats &ps = (outs++)->probes[0];
            table.addRow(
                {std::to_string(s), std::to_string(k),
                 TextTable::num(ps.read_in_hits.mean(), 2),
                 TextTable::num(ps.read_in_misses.mean(), 2),
                 TextTable::num(ps.totalMean(), 2),
                 TextTable::num(core::analytic::partialHit(a, k, s), 2),
                 TextTable::num(core::analytic::partialMiss(a, k, s), 2)});
        }
        table.print(std::cout, args.format);
    };
}

Printer
hintAccuracy(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    static const std::uint32_t l2_sizes[] = {8u * 1024, 16u * 1024,
                                             64u * 1024, 256u * 1024};
    for (std::uint32_t l2 : l2_sizes)
        specs.push_back(point(4096, l2, 4));
    return [&args](const RunOutput *outs) {
        std::printf("\nAblation 2 — write-back-hint accuracy vs "
                    "level-two size (4K-16 L1, 4-way L2):\n\n");
        TextTable table;
        table.setHeader({"L2", "SizeRatio", "WB-miss ratio",
                         "Hint accuracy"});
        for (std::uint32_t l2 : l2_sizes) {
            const mem::HierarchyStats &s = (outs++)->stats;
            double wb = static_cast<double>(s.write_backs);
            double wbmiss = wb == 0 ? 0.0 : s.write_back_misses / wb;
            table.addRow({cacheName(l2, 32),
                          std::to_string(l2 / 4096) + "x",
                          TextTable::num(wbmiss, 4),
                          TextTable::num(s.hintAccuracy(), 4)});
        }
        table.print(std::cout, args.format);
    };
}

Printer
tagWidthSweep(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    std::vector<std::pair<unsigned, core::SchemeSpec>> widths;
    for (unsigned t : {8u, 12u, 16u, 24u, 32u}) {
        core::SchemeSpec p;
        try {
            p = core::SchemeSpec::paperPartial(8, t, 2);
        } catch (const FatalError &) {
            continue;
        }
        RunSpec spec = point(16384, 262144, 8);
        spec.schemes = {p};
        widths.emplace_back(t, p);
        specs.push_back(spec);
    }
    return [=, &args](const RunOutput *outs) {
        std::printf("\nAblation 3 — tag-width sweep for the partial "
                    "scheme (16K-16 L1, 256K-32 8-way L2):\n\n");
        TextTable table;
        table.setHeader({"TagBits", "k", "Subsets", "Hits", "Misses",
                         "Total"});
        for (const auto &[t, p] : widths) {
            const core::ProbeStats &ps = (outs++)->probes[0];
            table.addRow({std::to_string(t), std::to_string(p.partial_k),
                          std::to_string(p.partial_subsets),
                          TextTable::num(ps.read_in_hits.mean(), 2),
                          TextTable::num(ps.read_in_misses.mean(), 2),
                          TextTable::num(ps.totalMean(), 2)});
        }
        table.print(std::cout, args.format);
    };
}

Printer
wbAllocationPolicy(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    for (bool allocate : {true, false}) {
        RunSpec spec = point(4096, 16384, 4);
        spec.hier.allocate_on_wb_miss = allocate;
        specs.push_back(spec);
    }
    return [&args](const RunOutput *outs) {
        std::printf("\nAblation 4 — write-back miss policy with a small "
                    "level two (4K-16 L1, 16K-32 4-way L2):\n\n");
        TextTable table;
        table.setHeader({"Policy", "Local miss", "Global miss",
                         "WB-miss count"});
        for (bool allocate : {true, false}) {
            const mem::HierarchyStats &s = (outs++)->stats;
            table.addRow({allocate ? "allocate" : "drop",
                          TextTable::num(s.localMissRatio(), 4),
                          TextTable::num(s.globalMissRatio(), 4),
                          TextTable::num(s.write_back_misses)});
        }
        table.print(std::cout, args.format);
    };
}

Printer
swapMruAndWideWidths(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    RunSpec spec = point(16384, 262144, 8);
    spec.schemes = {scheme(core::SchemeKind::SwapMru),
                    scheme(core::SchemeKind::Mru)};
    for (unsigned b : {1u, 2u, 4u, 8u}) {
        spec.schemes.push_back(scheme(core::SchemeKind::WideNaive, b));
        spec.schemes.push_back(scheme(core::SchemeKind::WideMru, b));
    }
    specs.push_back(spec);
    return [&args](const RunOutput *outs) {
        std::printf("\nAblation 5 — swapping MRU and intermediate "
                    "tag-memory widths b*t (16K-16 L1, 256K-32 8-way "
                    "L2):\n\n");
        const RunOutput &out = outs[0];
        TextTable table;
        table.setHeader({"Scheme", "Hits", "Misses", "Total", "Note"});
        double accesses = static_cast<double>(out.stats.read_ins +
                                              out.stats.write_backs);
        for (std::size_t i = 0; i < out.probes.size(); ++i) {
            const core::ProbeStats &ps = out.probes[i];
            const std::string &name = out.names[i];
            std::string note;
            if (name == "SwapMRU") {
                double moves = static_cast<double>(core::swapMruMoves(ps));
                note = TextTable::num(moves / accesses, 2) +
                       " block moves per access";
            } else if (name == "WideNaive-8") {
                note = "= traditional (b = a)";
            } else if (name == "WideNaive-1") {
                note = "= naive";
            }
            table.addRow({name, TextTable::num(ps.read_in_hits.mean(), 2),
                          TextTable::num(ps.read_in_misses.mean(), 2),
                          TextTable::num(ps.totalMean(), 2), note});
        }
        table.print(std::cout, args.format);
        std::printf("\nSwapMRU saves the MRU scheme's list-read probe "
                    "but needs the printed volume of tag+data block "
                    "moves: the paper's viability concern, "
                    "quantified.\n");
    };
}

Printer
inclusionAndWritePolicy(std::vector<RunSpec> &specs,
                        const CommonArgs &args)
{
    struct Variant
    {
        const char *name;
        bool inclusion;
        mem::L1WritePolicy policy;
    };
    static const Variant variants[] = {
        {"write-back (paper)", false, mem::L1WritePolicy::WriteBack},
        {"write-back + inclusion", true, mem::L1WritePolicy::WriteBack},
        {"write-through", false, mem::L1WritePolicy::WriteThrough}};
    for (const Variant &v : variants) {
        RunSpec spec = point(16384, 262144, 4);
        spec.hier.enforce_inclusion = v.inclusion;
        spec.hier.write_policy = v.policy;
        specs.push_back(spec);
    }
    return [&args](const RunOutput *outs) {
        std::printf("\nAblation 6 — inclusion enforcement and level-one "
                    "write policy (16K-16 L1, 256K-32 4-way L2):\n\n");
        TextTable table;
        table.setHeader({"Variant", "L1 miss", "Local miss", "L2 reqs",
                         "WB misses", "L1 invals"});
        for (const Variant &v : variants) {
            const mem::HierarchyStats &s = (outs++)->stats;
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
    };
}

/** The cold row is a sweep point; the warm row replays a trace
 *  without flush markers, outside the sweep. */
Printer
warmVsCold(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    const RunSpec spec = point(16384, 262144, 4);
    specs.push_back(spec);
    return [spec, &args](const RunOutput *outs) {
        trace::AtumLikeConfig tcfg = traceConfig(args);
        tcfg.flush_between_segments = false;
        trace::AtumLikeGenerator warm_trace(tcfg);
        const mem::HierarchyStats warm = runTrace(warm_trace, spec).stats;

        std::printf("\nAblation 7 — cold-start flushes between "
                    "sub-traces (16K-16 L1, 256K-32 4-way L2):\n\n");
        TextTable table;
        table.setHeader({"Trace", "L1 miss", "Local miss", "Global"});
        for (bool flush : {true, false}) {
            const mem::HierarchyStats &s = flush ? outs[0].stats : warm;
            table.addRow({flush ? "cold (paper)" : "warm",
                          TextTable::num(s.l1MissRatio(), 4),
                          TextTable::num(s.localMissRatio(), 4),
                          TextTable::num(s.globalMissRatio(), 4)});
        }
        table.print(std::cout, args.format);
        std::printf("\nThe paper: \"limited 'warmer' results were "
                    "found to be similar, except that the miss ratios "
                    "were smaller.\"\n");
    };
}

/** Runs outside the sweep, so that no retried job feeds the shadow
 *  cache the request stream twice. */
Printer
hashRehashVsTwoWay(std::vector<RunSpec> &, const CommonArgs &args)
{
    return [&args](const RunOutput *) {
        std::printf("\nAblation 8 — hash-rehash vs 2-way swapping MRU "
                    "(footnote 2), 16K-16 L1, 256K-32 L2, equal "
                    "capacity, read-ins:\n\n");

        trace::AtumLikeGenerator gen(traceConfig(args));
        core::HashRehashShadow rehash(262144 / 32);
        RunSpec spec = point(16384, 262144, 2);
        spec.schemes = {scheme(core::SchemeKind::SwapMru),
                        scheme(core::SchemeKind::Mru)};
        spec.extra_observers = {&rehash};
        RunOutput out = runTrace(gen, spec);
        const core::ProbeStats &swap = out.probes[0];
        const core::ProbeStats &mru = out.probes[1];

        double ri = static_cast<double>(out.stats.read_ins);
        double two_way_hr = out.stats.read_in_hits / ri;

        TextTable table;
        table.setHeader({"Organization", "Hit ratio", "Hit probes",
                         "Miss probes", "Total", "Swaps/read-in"});
        table.addRow(
            {"2-way swap-MRU", TextTable::num(two_way_hr, 4),
             TextTable::num(swap.read_in_hits.mean(), 2),
             TextTable::num(swap.read_in_misses.mean(), 2),
             TextTable::num(swap.readInMean(), 2),
             TextTable::num(core::swapMruMoves(swap) / ri, 2)});
        table.addRow(
            {"2-way list-MRU", TextTable::num(two_way_hr, 4),
             TextTable::num(mru.read_in_hits.mean(), 2),
             TextTable::num(mru.read_in_misses.mean(), 2),
             TextTable::num(mru.readInMean(), 2), "0.00"});
        table.addRow(
            {"hash-rehash DM", TextTable::num(rehash.hits().ratio(), 4),
             TextTable::num(rehash.hitProbes().mean(), 2),
             TextTable::num(rehash.missProbes().mean(), 2),
             TextTable::num(rehash.totalProbes(), 2),
             TextTable::num(rehash.swaps() / ri, 2)});
        table.print(std::cout, args.format);
        std::printf("\nFootnote 2: for 2-way associativity, "
                    "hash-rehash (a probed-twice direct-mapped array) "
                    "can beat the MRU schemes — it swaps only on rehash "
                    "hits and misses, not on every recency change.\n");
    };
}

Printer
replacementPolicies(std::vector<RunSpec> &specs, const CommonArgs &args)
{
    static const mem::ReplPolicy policies[] = {
        mem::ReplPolicy::Lru, mem::ReplPolicy::TreePlru,
        mem::ReplPolicy::Fifo, mem::ReplPolicy::Random};
    for (mem::ReplPolicy p : policies) {
        RunSpec spec = point(16384, 262144, 4);
        spec.hier.l2_replacement = p;
        spec.schemes = {scheme(core::SchemeKind::Mru)};
        specs.push_back(spec);
    }
    return [&args](const RunOutput *outs) {
        std::printf("\nAblation 9 — level-two replacement policy "
                    "(16K-16 L1, 256K-32 4-way L2):\n\n");
        TextTable table;
        table.setHeader({"Policy", "Local miss", "Global miss",
                         "MRU probes", "Extra state/set"});
        for (mem::ReplPolicy p : policies) {
            const RunOutput &out = *outs++;
            const char *state = "none";
            if (p == mem::ReplPolicy::Lru)
                state = "full LRU list (shared with MRU scheme)";
            else if (p == mem::ReplPolicy::TreePlru)
                state = "a-1 tree bits";
            else if (p == mem::ReplPolicy::Fifo)
                state = "fill pointer";
            table.addRow({mem::replPolicyName(p),
                          TextTable::num(out.stats.localMissRatio(), 4),
                          TextTable::num(out.stats.globalMissRatio(), 4),
                          TextTable::num(out.probes[0].totalMean(), 2),
                          state});
        }
        table.print(std::cout, args.format);
        std::printf("\nThe paper picks LRU because its per-set state "
                    "doubles as the MRU scheme's search list; random "
                    "replacement is cheaper in state but costs miss "
                    "ratio (and would make the MRU scheme pay for its "
                    "own list).\n");
    };
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
        // A journal or a JSON file would hold the sweep's points but
        // not the two runs outside it. bench::runSweep needs every
        // point, so a failed job cannot become a gap.
        if (!args.journal_path.empty() || !args.resume_path.empty())
            throwError(Error::usage(
                "bench_ablation runs two simulations outside its "
                "sweep: --journal and --resume are refused"));
        if (!args.json_path.empty())
            throwError(Error::usage(
                "bench_ablation runs two simulations outside its "
                "sweep: --json is refused"));
        if (args.keep_going)
            throwError(Error::usage("bench_ablation needs every sweep "
                                    "point: --keep-going is refused"));

        std::vector<RunSpec> specs;
        std::vector<std::pair<std::size_t, Printer>> tables;
        for (auto ablation :
             {subsetSweep, hintAccuracy, tagWidthSweep,
              wbAllocationPolicy, swapMruAndWideWidths,
              inclusionAndWritePolicy, warmVsCold, hashRehashVsTwoWay,
              replacementPolicies}) {
            std::size_t first = specs.size();
            tables.emplace_back(first, ablation(specs, args));
        }
        std::vector<RunOutput> outs =
            bench::runSweep(specs, args, "ablation");
        for (const auto &[first, print] : tables)
            print(outs.data() + first);
        return 0;
    });
}
