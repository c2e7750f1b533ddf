#include "core/partial_lookup.h"

#include <bit>

#include "core/kernels.h"
#include "core/kernels_inl.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace core {

PartialLookup::PartialLookup(const PartialConfig &cfg)
    : cfg_(cfg),
      xform_(TagTransform::make(cfg.transform, cfg.tag_bits,
                                cfg.field_bits))
{
    fatalIf(cfg_.subsets == 0, "partial compare needs >= 1 subset");
}

std::string
PartialLookup::name() const
{
    std::string n = "Partial(k=" + std::to_string(cfg_.field_bits) +
                    ",s=" + std::to_string(cfg_.subsets) + "," +
                    xform_->name() + ")";
    return n;
}

void
PartialLookup::validate(unsigned a) const
{
    const unsigned s = cfg_.subsets;
    fatalIf(s > a || a % s != 0,
            "subset count must divide the associativity");
    fatalIf((a / s) * cfg_.field_bits > cfg_.tag_bits,
            "k * (a/s) exceeds the tag width " +
                std::to_string(cfg_.tag_bits));
    validated_assoc_ = a;
    inc_fields_.resize(a / s);
}

LookupResult
PartialLookup::lookup(const LookupInput &in) const
{
    const unsigned a = in.assoc;
    const unsigned s = cfg_.subsets;
    // Validate once per (config, associativity) pair, not per
    // access: every set of one cache shares the associativity.
    if (a != validated_assoc_)
        validate(a);
    const unsigned g = a / s; // ways per subset (g * k <= t <= 32,
                              // so g <= 32 and masks always fit)
    const unsigned k = cfg_.field_bits;
    const TransformKind kind = cfg_.transform;

    // The incoming tag's collection fields, once per lookup via the
    // transforms' closed forms (kernels_inl.h) — the pre-kernel
    // loop re-derived them through virtual apply()/field() calls
    // for every way of every subset.
    std::uint32_t *inc = inc_fields_.data();
    for (unsigned l = 0; l < g; ++l)
        inc[l] = kdetail::partialStoredField(in.incoming_tag, l, k,
                                             kind);

    // Step 1 of every subset as one mask M: way w partially matches
    // through collection w mod g of its subset.
    const std::uint64_t cand = activeKernels().partial_mask(
        in.stored_tags, in.valid, a, g, inc, k, kind, *xform_);

    // Step 2 from the masks alone. The subsets are searched in way
    // order and so are their candidates, so the search stops at the
    // lowest full match h = the lowest bit of E = in.eq. Equal tags
    // have equal fields (the transforms are bijections per way
    // slot), so E is a subset of M: reaching h costs the step-1
    // probes of subsets 0..h/g and one full compare per candidate
    // at or below h. A miss reads every subset and full-compares
    // every candidate.
    LookupResult res;
    std::uint64_t compared = cand;
    unsigned subsets = s;
    if (in.eq != 0) {
        const unsigned h = static_cast<unsigned>(std::countr_zero(in.eq));
        res.hit = true;
        res.way = static_cast<int>(h);
        compared &= maskBits(h + 1);
        subsets = h / g + 1;
    }
    const unsigned full = popcount(compared);
    res.probes = subsets + full;
    res.events.field_reads = subsets * g;
    res.events.tag_reads = full;
    res.events.tag_compares = full;
    return res;
}

} // namespace core
} // namespace assoc
