/**
 * @file
 * The partial-compare lookup (Section 2.2, Figure 2b).
 *
 * The a ways of a set are split into s subsets of g = a/s ways.
 * For each subset in turn:
 *   step 1 — one probe reads the k-bit field assigned to each of
 *            the subset's g ways (collection l reads field l) and
 *            compares them with the corresponding fields of the
 *            incoming tag;
 *   step 2 — every way that partially matched is full-compared
 *            serially (one probe each) until a match is found.
 * The search stops at the first full match; a miss costs the step-1
 * probe of every subset plus one probe per false partial match.
 *
 * One partial_mask kernel call (core/kernels.h) does step 1 for
 * every subset at once, and step 2 is priced from that mask and the
 * input's eq mask: the first full match is eq's lowest way, and the
 * full compares are the candidates in way order up to it.
 *
 * Stored and incoming tags are hashed by a TagTransform so the
 * compared fields are closer to uniform (see transform.h).
 */

#ifndef ASSOC_CORE_PARTIAL_LOOKUP_H
#define ASSOC_CORE_PARTIAL_LOOKUP_H

#include <memory>
#include <vector>

#include "core/lookup.h"
#include "core/transform.h"

namespace assoc {
namespace core {

/** Configuration of a partial-compare lookup. */
struct PartialConfig
{
    unsigned tag_bits = 16;  ///< t, the stored tag width
    unsigned field_bits = 4; ///< k, the partial-compare width
    unsigned subsets = 1;    ///< s
    TransformKind transform = TransformKind::XorLow;
};

class PartialLookup : public LookupStrategy
{
  public:
    /**
     * @param cfg geometry of the partial compares. Requires
     *        k * (a/s) <= t at lookup time; construction validates
     *        only k <= t.
     */
    explicit PartialLookup(const PartialConfig &cfg);

    LookupResult lookup(const LookupInput &in) const override;

    std::string name() const override;

    const PartialConfig &config() const { return cfg_; }
    const TagTransform &transform() const { return *xform_; }

  private:
    /** Config validation against one associativity (subset count
     *  divides a, g*k fits the tag width). Hot lookups skip it once
     *  an associativity has been validated; like the meters' scratch
     *  buffers, the memoization assumes one thread per instance. */
    void validate(unsigned assoc) const;

    PartialConfig cfg_;
    std::unique_ptr<TagTransform> xform_;
    mutable unsigned validated_assoc_ = 0;
    /** Scratch: field l of apply(incoming_tag, l) for l < g,
     *  computed once per lookup and fed to the partial-mask kernel
     *  (the original loop recomputed it per subset per way). Sized
     *  by validate(); same one-thread-per-instance contract as the
     *  validation memoization. */
    mutable std::vector<std::uint32_t> inc_fields_;
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_PARTIAL_LOOKUP_H
