/**
 * @file
 * Closed-form expected-probe model of Section 2 and Table 1.
 *
 * All hit formulas condition on the access hitting; miss formulas
 * condition on missing. The partial-compare expressions assume each
 * k-bit compared field is independent and uniform — the
 * "probabilistic lower bound" Figure 6 plots against measurement.
 */

#ifndef ASSOC_CORE_ANALYTIC_H
#define ASSOC_CORE_ANALYTIC_H

#include <cstdint>
#include <vector>

namespace assoc {
namespace core {
namespace analytic {

/** Traditional implementation: always one probe. */
double traditionalHit();
double traditionalMiss();

/** Naive serial scan: (a-1)/2 + 1 on a hit, a on a miss. */
double naiveHit(unsigned a);
double naiveMiss(unsigned a);

/**
 * The b-wide naive scan (b tags per probe): a hit in group g costs
 * g + 1 probes, a miss ceil(a/b). b = 1 is the naive scan, b = a the
 * traditional lookup.
 */
double wideNaiveHit(unsigned a, unsigned b);
double wideNaiveMiss(unsigned a, unsigned b);

/**
 * MRU scan: 1 + sum i*f_i on a hit (f_i = probability the i-th
 * most-recently-used tag matches, given a hit), a + 1 on a miss.
 * @param f distribution, f[0] unused, f[1..a] the probabilities.
 */
double mruHit(const std::vector<double> &f);
double mruMiss(unsigned a);

/**
 * Reduced MRU list of @p list_len entries (Figure 5): hits within
 * the list cost 1 + i probes; hits beyond it are found by scanning
 * the remaining a - L ways in an order uncorrelated with recency,
 * at an expected extra (a - L + 1)/2 probes after the L list
 * probes. @p f as in mruHit; list_len 0 or >= a gives mruHit.
 */
double mruReducedHit(const std::vector<double> &f, unsigned list_len);

/**
 * Partial compares with @p s subsets of k-bit fields:
 * hit:  (s+1)/2 + ((s-1)/2) * (a/s)/2^k + ((a/s)-1)/2^(k+1) + 1
 * miss: s + a/2^k
 * (collapses to Table 1's single-subset forms at s = 1).
 */
double partialHit(unsigned a, unsigned k, unsigned s = 1);
double partialMiss(unsigned a, unsigned k, unsigned s = 1);

/**
 * Expected probes per access for a scheme given its hit and miss
 * expectations and the (local) miss ratio.
 */
double combined(double hit_probes, double miss_probes,
                double miss_ratio);

/** The hits-only optimum partial-compare width: log2(t) - 1/2. */
double kOpt(unsigned t);

/**
 * Partial-compare width implied by tag width @p t, associativity
 * @p a and @p s subsets: floor(t / (a/s)), capped at t.
 */
unsigned partialWidth(unsigned a, unsigned t, unsigned s);

/**
 * Choose the number of subsets (a power of two dividing @p a) that
 * minimizes expected probes for the given miss ratio, following
 * answer (1) of Section 2.2. @p miss_ratio 0 optimizes hits only.
 */
unsigned chooseSubsets(unsigned a, unsigned t, double miss_ratio = 0.0);

} // namespace analytic
} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_ANALYTIC_H
