/**
 * @file
 * Tag-transformation study for the partial-compare scheme.
 *
 * Demonstrates *why* the transform matters: prints the per-field
 * value distribution of real stored tags before and after each
 * transform (entropy per compared field), then the probe cost each
 * transform achieves on the trace. Use it to evaluate a custom
 * hash before building it into a cache controller.
 *
 *   $ ./transform_study [--tagbits=16] [--assoc=8] [--segments=4]
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/probe_meter.h"
#include "core/scheme.h"
#include "core/tagbits.h"
#include "core/transform.h"
#include "mem/hierarchy.h"
#include "trace/atum_like.h"
#include "util/argparse.h"
#include "util/table.h"
#include "util/error.h"

using namespace assoc;
using core::TransformKind;

namespace {

/** Collects the stored-tag stream of read-ins (what the tag memory
 *  would hold) for entropy analysis. */
class TagCollector : public mem::L2Observer
{
  public:
    explicit TagCollector(unsigned tag_bits) : tag_bits_(tag_bits) {}

    void
    observe(const mem::L2AccessView &view) override
    {
        if (view.type != mem::L2ReqType::ReadIn)
            return;
        tags_.push_back(core::sliceTag(view.full_tag, tag_bits_));
    }

    const std::vector<std::uint32_t> &tags() const { return tags_; }

  private:
    unsigned tag_bits_;
    std::vector<std::uint32_t> tags_;
};

/** Shannon entropy (bits) of one k-bit field over a tag stream. */
double
fieldEntropy(const std::vector<std::uint32_t> &tags,
             const core::TagTransform &xf, unsigned field)
{
    std::vector<std::uint64_t> counts(std::size_t{1}
                                          << xf.fieldBits(),
                                      0);
    for (std::uint32_t tag : tags)
        ++counts[xf.field(xf.apply(tag, field), field)];
    double h = 0.0;
    for (std::uint64_t c : counts) {
        if (c == 0)
            continue;
        double p = static_cast<double>(c) / tags.size();
        h -= p * std::log2(p);
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("transform_study",
                     "entropy and probe cost of tag transforms");
    parser.addFlag("segments", "4", "trace segments to simulate");
    parser.addFlag("tagbits", "16", "stored tag width t");
    parser.addFlag("assoc", "8", "level-two associativity");
    return guardedMain("transform_study", [&]() -> int {
        if (!parser.parse(argc, argv))
            return 0;
        unsigned segments = parser.getUint32("segments");
        unsigned t = parser.getUint32("tagbits");
        unsigned assoc = parser.getUint32("assoc");

        const TransformKind kinds[] = {
            TransformKind::None, TransformKind::XorLow,
            TransformKind::Improved, TransformKind::Swap};

        // --- Pass 1: collect the stored-tag stream. ---
        trace::AtumLikeConfig tcfg;
        tcfg.segments = segments;
        trace::AtumLikeGenerator gen(tcfg);
        mem::HierarchyConfig hcfg{mem::CacheGeometry(16384, 16, 1),
                                  mem::CacheGeometry(262144, 32,
                                                     assoc),
                                  true};
        mem::TwoLevelHierarchy hier(hcfg);
        TagCollector collector(t);
        hier.addObserver(&collector);

        std::vector<std::unique_ptr<core::ProbeMeter>> meters;
        for (TransformKind kind : kinds) {
            core::SchemeSpec spec =
                core::SchemeSpec::paperPartial(assoc, t);
            spec.transform = kind;
            meters.push_back(spec.makeMeter());
            hier.addObserver(meters.back().get());
        }
        hier.run(gen);

        unsigned k = core::SchemeSpec::paperPartial(assoc, t).partial_k;
        std::printf("Stored-tag field entropy (t = %u, k = %u, "
                    "%zu read-in tags, max %.1f bits/field):\n\n",
                    t, k, collector.tags().size(),
                    static_cast<double>(k));

        TextTable etable;
        std::vector<std::string> header{"Transform"};
        unsigned nfields = t / k;
        for (unsigned f = 0; f < nfields; ++f)
            header.push_back("field" + std::to_string(f));
        etable.setHeader(header);
        for (TransformKind kind : kinds) {
            auto xf = core::TagTransform::make(kind, t, k);
            std::vector<std::string> row{
                core::transformKindName(kind)};
            for (unsigned f = 0; f < nfields; ++f)
                row.push_back(TextTable::num(
                    fieldEntropy(collector.tags(), *xf, f), 2));
            etable.addRow(row);
        }
        etable.print(std::cout);

        std::printf("\nProbe cost on the same trace "
                    "(%u-way L2, read-ins):\n\n",
                    assoc);
        TextTable ptable;
        ptable.setHeader({"Transform", "Hit probes", "Miss probes",
                          "Total"});
        for (std::size_t i = 0; i < meters.size(); ++i) {
            ptable.addRow(
                {core::transformKindName(kinds[i]),
                 TextTable::num(
                     meters[i]->stats().read_in_hits.mean(), 2),
                 TextTable::num(
                     meters[i]->stats().read_in_misses.mean(), 2),
                 TextTable::num(meters[i]->stats().totalMean(), 2)});
        }
        ptable.print(std::cout);
        std::printf("\nLow entropy in *any* compared field means "
                    "false partial matches: probes track the worst "
                    "field, which is why hashing high tag bits with "
                    "the (random) low bits pays off.\n");
        return 0;
    });
}
