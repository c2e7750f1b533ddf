#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace assoc {

Geometric::Geometric(double p) : p_(p)
{
    // Read back through a volatile so no compiler can see a constant
    // p and fold the logarithm itself.
    volatile double q = p;
    log1p_neg_p_ = std::log1p(-q);
}

std::uint32_t
Pcg32::geometric(const Geometric &g, std::uint32_t cap)
{
    const double p = g.p();
    panicIf(!(p > 0.0) || p > 1.0, "Pcg32::geometric: p out of (0, 1]");
    if (p >= 1.0)
        return 0;
    double u = uniform();
    // Avoid log(0); uniform() < 1 so 1 - u > 0.
    double k = std::floor(std::log1p(-u) / g.log1pNegP());
    if (k < 0)
        k = 0;
    if (k > cap)
        k = cap;
    return static_cast<std::uint32_t>(k);
}

void
ZipfSampler::rebuild(std::uint32_t n)
{
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
        cdf_[i] = sum;
    }
    for (std::uint32_t i = 0; i < n; ++i)
        cdf_[i] /= sum;
}

std::uint32_t
ZipfSampler::draw(Pcg32 &rng, std::uint32_t n)
{
    panicIf(n == 0, "ZipfSampler::draw: empty range");
    if (n == 1)
        return 0;
    // Grow (and occasionally shrink) the cached CDF by doubling so
    // footprint growth in the trace generator stays O(log n) rebuilds.
    if (cdf_.size() < n || cdf_.size() > 4 * static_cast<std::size_t>(n)) {
        std::uint32_t cap = 1;
        while (cap < n)
            cap *= 2;
        rebuild(cap);
    }
    // Restrict to the first n entries by scaling the draw into the
    // CDF mass of [0, n).
    double mass = cdf_[n - 1];
    double u = rng.uniform() * mass;
    auto it = std::lower_bound(cdf_.begin(), cdf_.begin() + n, u);
    return static_cast<std::uint32_t>(it - cdf_.begin());
}

} // namespace assoc
