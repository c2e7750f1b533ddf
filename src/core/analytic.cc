#include "core/analytic.h"

#include <algorithm>
#include <cmath>

#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace core {
namespace analytic {

double
traditionalHit()
{
    return 1.0;
}

double
traditionalMiss()
{
    return 1.0;
}

double
naiveHit(unsigned a)
{
    fatalIf(a == 0, "associativity must be positive");
    return (a - 1) / 2.0 + 1.0;
}

double
naiveMiss(unsigned a)
{
    fatalIf(a == 0, "associativity must be positive");
    return static_cast<double>(a);
}

double
wideNaiveHit(unsigned a, unsigned b)
{
    fatalIf(a == 0 || b == 0, "bad wide-naive geometry");
    // Hit way uniform over a positions; group g covers positions
    // [g*b, (g+1)*b). E[probes] = E[g] + 1.
    unsigned groups = (a + b - 1) / b;
    double sum = 0.0;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned in_group =
            std::min(b, a - g * b); // positions in this group
        sum += static_cast<double>(in_group) * (g + 1);
    }
    return sum / a;
}

double
wideNaiveMiss(unsigned a, unsigned b)
{
    fatalIf(a == 0 || b == 0, "bad wide-naive geometry");
    return static_cast<double>((a + b - 1) / b);
}

double
mruHit(const std::vector<double> &f)
{
    double probes = 1.0; // reading the MRU list
    for (std::size_t i = 1; i < f.size(); ++i)
        probes += static_cast<double>(i) * f[i];
    return probes;
}

double
mruMiss(unsigned a)
{
    fatalIf(a == 0, "associativity must be positive");
    return 1.0 + static_cast<double>(a);
}

double
mruReducedHit(const std::vector<double> &f, unsigned list_len)
{
    fatalIf(f.size() < 2, "distribution needs at least one entry");
    unsigned a = static_cast<unsigned>(f.size()) - 1;
    if (list_len == 0 || list_len >= a)
        return mruHit(f);

    double probes = 1.0; // the list read
    double beyond = 0.0; // probability mass past the list
    for (unsigned i = 1; i <= a; ++i) {
        if (i <= list_len)
            probes += static_cast<double>(i) * f[i];
        else
            beyond += f[i];
    }
    // Out-of-list hits: all L list ways probed, then on average
    // half of the remaining a - L ways (uncorrelated order).
    probes += beyond * (list_len + (a - list_len + 1) / 2.0);
    return probes;
}

double
partialHit(unsigned a, unsigned k, unsigned s)
{
    fatalIf(a == 0 || s == 0 || a % s != 0,
            "subsets must divide the associativity");
    fatalIf(k == 0 || k > 32, "field width must be in [1, 32]");
    double g = static_cast<double>(a) / s; // tags per subset
    double p = std::ldexp(1.0, -static_cast<int>(k)); // 1 / 2^k
    // Subset holding the match is uniform over the s subsets:
    // E[step-1 probes] = (s+1)/2. Earlier subsets contribute all
    // their false matches, the matching subset contributes half of
    // its other tags' false matches, plus the matching full compare.
    return (s + 1) / 2.0 + ((s - 1) / 2.0) * g * p +
           (g - 1) * p / 2.0 + 1.0;
}

double
partialMiss(unsigned a, unsigned k, unsigned s)
{
    fatalIf(a == 0 || s == 0 || a % s != 0,
            "subsets must divide the associativity");
    fatalIf(k == 0 || k > 32, "field width must be in [1, 32]");
    double p = std::ldexp(1.0, -static_cast<int>(k));
    return static_cast<double>(s) + static_cast<double>(a) * p;
}

double
combined(double hit_probes, double miss_probes, double miss_ratio)
{
    fatalIf(miss_ratio < 0.0 || miss_ratio > 1.0,
            "miss ratio must be in [0, 1]");
    return hit_probes * (1.0 - miss_ratio) + miss_probes * miss_ratio;
}

double
kOpt(unsigned t)
{
    fatalIf(t == 0, "tag width must be positive");
    return std::log2(static_cast<double>(t)) - 0.5;
}

unsigned
partialWidth(unsigned a, unsigned t, unsigned s)
{
    fatalIf(a == 0 || s == 0 || a % s != 0,
            "subsets must divide the associativity");
    unsigned g = a / s;
    unsigned k = t / g;
    if (k > t)
        k = t;
    return k;
}

unsigned
chooseSubsets(unsigned a, unsigned t, double miss_ratio)
{
    fatalIf(!isPow2(a), "associativity must be a power of two");
    unsigned best_s = 1;
    double best_cost = -1.0;
    for (unsigned s = 1; s <= a; s *= 2) {
        unsigned k = partialWidth(a, t, s);
        if (k == 0)
            continue; // too many tags per subset for this tag width
        double cost = combined(partialHit(a, k, s),
                               partialMiss(a, k, s), miss_ratio);
        if (best_cost < 0.0 || cost < best_cost) {
            best_cost = cost;
            best_s = s;
        }
    }
    fatalIf(best_cost < 0.0, "no feasible subset count");
    return best_s;
}

} // namespace analytic
} // namespace core
} // namespace assoc
