#include "core/partial_lookup.h"

#include <bit>

#include "core/kernels.h"
#include "core/kernels_inl.h"
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

    const LookupKernels &kern = activeKernels();
    LookupResult res;

    for (unsigned sub = 0; sub < s; ++sub) {
        // Step 1: one probe partially compares all g ways of this
        // subset, each through its own k-bit collection.
        ++res.probes;
        res.events.field_reads += g;
        const unsigned base = sub * g;
        std::uint64_t cand = kern.partial_mask(
            in.stored_tags + base, in.valid >> base, g, inc, k, kind,
            *xform_);

        // Step 2: full compares of the partial matches, in
        // collection order. The transforms are bijections per way
        // slot, so comparing raw tags decides exactly what the
        // pre-kernel transformed-tag compare decided.
        while (cand != 0) {
            unsigned l =
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            ++res.probes;
            ++res.events.tag_reads;
            ++res.events.tag_compares;
            if (in.stored_tags[base + l] == in.incoming_tag) {
                res.hit = true;
                res.way = static_cast<int>(base + l);
                return res;
            }
        }
    }
    return res; // miss: s step-1 probes + one per false match
}

} // namespace core
} // namespace assoc
