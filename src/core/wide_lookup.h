/**
 * @file
 * Intermediate tag-memory widths: the b x t designs Section 1
 * mentions ("implementations using tag widths of b*t (1 < b < a)
 * are possible and can result in intermediate costs and
 * performance, but are not considered here"). We consider them.
 *
 * A b-wide tag memory reads and compares b stored tags per probe,
 * so the serial scans shorten by a factor of b:
 *
 *   WideNaive:  hit in scan group g (0-based) -> g + 1 probes,
 *               miss -> ceil(a/b) probes.
 *   WideMru:    one probe for the MRU list, then groups of b tags
 *               in recency order.
 *
 * At b = 1 these collapse to the Naive and MRU schemes; at b = a
 * WideNaive is the traditional parallel lookup. The cost side
 * (b-wide RAM and b comparators) scales the same way, which is
 * what bench_ablation's width sweep shows.
 */

#ifndef ASSOC_CORE_WIDE_LOOKUP_H
#define ASSOC_CORE_WIDE_LOOKUP_H

#include "core/lookup.h"

namespace assoc {
namespace core {

/** Serial scan reading @p width tags per probe, in way order. */
class WideNaiveLookup : public LookupStrategy
{
  public:
    /** @param width tags read per probe (b in the paper). */
    explicit WideNaiveLookup(unsigned width);

    LookupResult lookup(const LookupInput &in) const override;

    std::string name() const override;

  private:
    unsigned width_;
};

/** MRU-ordered scan reading @p width tags per probe. */
class WideMruLookup : public LookupStrategy
{
  public:
    explicit WideMruLookup(unsigned width);

    LookupResult lookup(const LookupInput &in) const override;

    std::string name() const override;

  private:
    unsigned width_;
};

namespace analytic {

/** Expected probes of the b-wide naive scan on a hit / miss. */
double wideNaiveHit(unsigned a, unsigned b);
double wideNaiveMiss(unsigned a, unsigned b);

} // namespace analytic

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_WIDE_LOOKUP_H
