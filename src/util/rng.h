/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * We implement our own small generators (SplitMix64 for seeding,
 * PCG32 for streams) rather than using std::mt19937 so that trace
 * generation is bit-reproducible across platforms and standard
 * library versions: every experiment in this repository replays
 * the identical reference stream from a seed.
 */

#ifndef ASSOC_UTIL_RNG_H
#define ASSOC_UTIL_RNG_H

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace assoc {

/**
 * SplitMix64: tiny 64-bit generator used to expand one user seed
 * into the state of other generators (Vigna's public-domain design).
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * The parameter of a geometric draw (Pcg32::geometric): its success
 * probability p and log1p(-p), computed once instead of on every
 * draw. The logarithm is taken at run time by the same std::log1p
 * call a per-draw computation makes, never folded at compile time
 * (GCC folds log1p of a constant with MPFR, whose last bit can
 * differ from the C library's), so every draw is bit-identical to
 * one with log1p(-p) computed in place. An out-of-range p is
 * reported by the draw, not here.
 */
class Geometric
{
  public:
    explicit Geometric(double p);

    double p() const { return p_; }
    /** log1p(-p). */
    double log1pNegP() const { return log1p_neg_p_; }

  private:
    double p_;
    double log1p_neg_p_;
};

/**
 * PCG32 (O'Neill): fast 32-bit generator with 64-bit state and a
 * selectable stream. Used for all stochastic choices in the
 * synthetic trace generator.
 */
class Pcg32
{
  public:
    /** Construct from a seed and stream id (distinct streams are
     *  statistically independent). */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        reseed(seed, stream);
    }

    /** Reset the generator to the state implied by @p seed/@p stream. */
    void
    reseed(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1;
        next();
        state_ += seed;
        next();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Next 64-bit value (two draws). */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next()) << 32) | next();
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        panicIf(bound == 0, "Pcg32::below: bound is zero");
        std::uint64_t m = std::uint64_t{next()} * bound;
        std::uint32_t lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            std::uint32_t t = (0u - bound) % bound;
            while (lo < t) {
                m = std::uint64_t{next()} * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before the first success
     * with success probability @p g.p(); capped at @p cap. Panics
     * unless p is in (0, 1].
     */
    std::uint32_t geometric(const Geometric &g,
                            std::uint32_t cap = 1u << 20);

  private:
    std::uint64_t state_ = 0;
    std::uint64_t inc_ = 1;
};

/**
 * Zipf(θ) sampler over [0, n): precomputes the CDF once and draws by
 * binary search. Used for long-tailed reuse distances in the trace
 * generator. Rebuildable as n grows (amortized via doubling).
 */
class ZipfSampler
{
  public:
    /** @param theta exponent (>0, larger = more skew). */
    explicit ZipfSampler(double theta) : theta_(theta) {}

    /** Draw a value in [0, n); n may differ call to call. */
    std::uint32_t draw(Pcg32 &rng, std::uint32_t n);

  private:
    void rebuild(std::uint32_t n);

    double theta_;
    std::vector<double> cdf_;
};

} // namespace assoc

#endif // ASSOC_UTIL_RNG_H
