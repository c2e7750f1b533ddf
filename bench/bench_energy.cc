/**
 * @file
 * Energy and energy·delay across the whole scheme zoo: Traditional,
 * Naive, MRU, Partial, WayMemo and WayPredict observed over one
 * shared simulation, priced per event by the hw energy model
 * (docs/ENERGY.md) and per probe by the Table 2 SRAM timing model.
 *
 * The lookup outcomes are identical across schemes by construction
 * (the memo-consistency invariant); what differs is where the
 * probes and the nanojoules go. Delay uses the Table 2 design that
 * matches each scheme's probe discipline, with the measured mean
 * extra probes as the probe variable — a memo scheme's mean can
 * fall below one probe, modeling the skipped tag phase.
 */

#include <cstdio>
#include <iostream>

#include "hw/energy_model.h"
#include "hw/impl_model.h"
#include "support.h"

using namespace assoc;
using namespace assoc::bench;
using namespace assoc::hw;

namespace {

/** Table 2 design and probe baseline for one scheme. */
struct DelayModel
{
    ImplKind impl;
    double base_probes; ///< probes the design's base time covers
};

DelayModel
delayModelFor(const core::SchemeSpec &s)
{
    switch (s.kind) {
      case core::SchemeKind::Traditional:
        return {ImplKind::Traditional, 1.0};
      case core::SchemeKind::Partial:
        return {ImplKind::Partial,
                static_cast<double>(s.partial_subsets)};
      case core::SchemeKind::Naive:
      case core::SchemeKind::Mru:
      case core::SchemeKind::WayMemo:
      case core::SchemeKind::WayPredict:
        // Serial-probe designs all ride the MRU column: its timing
        // is "base + per-extra-probe", exactly the serial discipline.
        return {ImplKind::Mru, 1.0};
    }
    return {ImplKind::Traditional, 1.0};
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("bench_energy",
                     "energy and energy-delay across the scheme zoo");
    parser.addFlag("tagbits", "16", "tag width t in bits");
    parser.addFlag("assoc", "4", "level-two associativity");
    parser.addFlag("l1", "16384", "level-one bytes");
    parser.addFlag("l2", "262144", "level-two bytes");
    addSweepFlags(parser);
    return guardedMain("bench_energy", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        CommonArgs args = readSweepFlags(parser);
        unsigned t = parser.getUint32("tagbits");
        unsigned assoc = parser.getUint32("assoc");
        std::uint32_t l1_bytes = parser.getUint32("l1");
        std::uint32_t l2_bytes = parser.getUint32("l2");

        // One simulation, six observers: every scheme prices the
        // same access stream.
        RunSpec spec;
        spec.hier = mem::HierarchyConfig{
            mem::CacheGeometry(l1_bytes, 16, 1),
            mem::CacheGeometry(l2_bytes, 32, assoc), true};

        core::SchemeSpec traditional;
        traditional.kind = core::SchemeKind::Traditional;
        core::SchemeSpec naive;
        naive.kind = core::SchemeKind::Naive;
        core::SchemeSpec mru;
        mru.kind = core::SchemeKind::Mru;
        core::SchemeSpec partial =
            core::SchemeSpec::paperPartial(assoc, t);
        core::SchemeSpec waymemo;
        waymemo.kind = core::SchemeKind::WayMemo;
        core::SchemeSpec waypredict;
        waypredict.kind = core::SchemeKind::WayPredict;
        spec.schemes = {traditional, naive,   mru,
                        partial,     waymemo, waypredict};
        for (core::SchemeSpec &s : spec.schemes)
            s.tag_bits = t;

        SweepResult run =
            bench::runSweepChecked({spec}, args, "energy");
        maybeWriteSweepJson(args, {spec}, run);
        const JobResult &job = run.jobs[0];

        Table2Catalog catalog;
        const EnergySpec energy = EnergySpec::defaultSram();
        SystemTimings sys;

        std::printf("Energy per level-two access and energy-delay "
                    "per request\n(a=%u, t=%u, SRAM tag path, "
                    "per-event nJ: tag=%.3f field=%.3f cmp=%.3f "
                    "list=%.3f memo=%.3f data=%.3f miss=%.1f)\n\n",
                    assoc, t, energy.tag_read_nj,
                    energy.field_read_nj, energy.tag_compare_nj,
                    energy.list_read_nj, energy.memo_access_nj,
                    energy.data_read_nj, energy.miss_nj);

        TextTable table;
        table.setHeader({"Scheme", "Probes", "TagNJ", "MemoNJ",
                         "nJ/acc", "ns/req", "EDP", "MemoHit%"});
        if (!job.ok()) {
            table.addRow(gapRow("all schemes", 7));
            table.print(std::cout, args.format);
            return sweepExitCode(run);
        }
        const RunOutput &out = job.output;

        const double l1mr = out.stats.l1MissRatio();
        const double ri = static_cast<double>(out.stats.read_ins);
        const double l2mr =
            ri == 0 ? 0.0 : out.stats.read_in_misses / ri;

        for (std::size_t i = 0; i < spec.schemes.size(); ++i) {
            const core::SchemeSpec &s = spec.schemes[i];
            const core::ProbeStats &ps = out.probes[i];

            EnergyEvents ev;
            ev.tag_reads = ps.events.tag_reads;
            ev.field_reads = ps.events.field_reads;
            ev.tag_compares = ps.events.tag_compares;
            ev.list_reads = ps.events.list_reads;
            ev.memo_reads = ps.events.memo_reads;
            ev.memo_writes = ps.events.memo_writes;
            ev.accesses = ps.metered;
            ev.hits = ps.read_in_hits.count() +
                      ps.write_backs.count();
            ev.misses = ps.read_in_misses.count();
            EnergyBreakdown eb = energyOf(energy, ev);

            DelayModel dm = delayModelFor(s);
            const ImplSpec &impl = catalog.get(dm.impl, RamTech::Sram);
            EffectiveInputs in;
            in.extra_hit_probes =
                ps.read_in_hits.mean() - dm.base_probes;
            in.extra_miss_probes =
                ps.read_in_misses.mean() - dm.base_probes;
            in.l1_miss_ratio = l1mr;
            in.l2_miss_ratio = l2mr;
            EffectiveResult er = effectiveAccess(impl, in, sys);
            EnergyDelay ed = energyDelay(eb, er);

            const double memo_pct =
                ps.metered
                    ? 100.0 * static_cast<double>(ps.memo_hits) /
                          static_cast<double>(ps.metered)
                    : 0.0;
            table.addRow({out.names[i],
                          TextTable::num(ps.totalMean(), 2),
                          TextTable::num(eb.tag_nj / 1e6, 3),
                          TextTable::num(eb.memo_nj / 1e6, 3),
                          TextTable::num(eb.per_access_nj, 3),
                          TextTable::num(ed.delay_ns, 1),
                          TextTable::num(ed.edp_nj_ns, 1),
                          TextTable::num(memo_pct, 1)});
        }
        table.print(std::cout, args.format);
        std::printf("\nTagNJ/MemoNJ are whole-run millijoules; "
                    "nJ/acc includes the phased data-way read and "
                    "the miss fill. EDP = nJ/acc x ns/request.\n");
        return sweepExitCode(run);
    });
}
