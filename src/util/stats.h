/**
 * @file
 * Scalar statistics accumulators (running means and ratios), and
 * merge, equality and walks derived from a record's field list.
 */

#ifndef ASSOC_UTIL_STATS_H
#define ASSOC_UTIL_STATS_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace assoc {

/**
 * How a statistics member behaves across runs of one seeded workload.
 * A statistics record lists each member once, in a static
 * `template <class V> static constexpr void fields(V &&v)` that calls
 * v("name", &Record::member, cls) per member. A member is a number
 * (an unsigned counter, or a sum held in a double) or a nested record
 * with its own list, such as a MeanAccum.
 */
enum class StatClass : std::uint8_t {
    Deterministic, ///< bit-identical across reruns and schedules
    Scheduled,     ///< varies with thread timing or clocks
};

/**
 * Running mean and variance of a stream of doubles. Sums of squares
 * are kept alongside the plain sum (probe counts are small, so this
 * is numerically safe) to make merging accumulators trivial.
 */
class MeanAccum
{
  public:
    /** Record one sample. */
    void
    record(double v)
    {
        sum_ += v;
        sumsq_ += v * v;
        ++n_;
    }

    /** Record @p v with integer weight @p w. */
    void
    record(double v, std::uint64_t w)
    {
        sum_ += v * static_cast<double>(w);
        sumsq_ += v * v * static_cast<double>(w);
        n_ += w;
    }

    /** Number of samples. */
    std::uint64_t count() const { return n_; }

    /** Sum of samples. */
    double sum() const { return sum_; }

    /** Mean (0 when empty). */
    double
    mean() const
    {
        return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
    }

    /** Population variance (0 when empty). */
    double
    variance() const
    {
        if (n_ == 0)
            return 0.0;
        double m = mean();
        double v = sumsq_ / static_cast<double>(n_) - m * m;
        return v < 0.0 ? 0.0 : v; // clamp rounding noise
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Reset to empty. */
    void reset() { *this = MeanAccum(); }

    /** The field list: the raw state, which merges by addition. */
    template <class V>
    static constexpr void
    fields(V &&v)
    {
        constexpr StatClass d = StatClass::Deterministic;
        v("sum", &MeanAccum::sum_, d);
        v("sumsq", &MeanAccum::sumsq_, d);
        v("n", &MeanAccum::n_, d);
    }

  private:
    double sum_ = 0.0;
    double sumsq_ = 0.0;
    std::uint64_t n_ = 0;
};

/** A hits-out-of-tries ratio counter. */
class RatioAccum
{
  public:
    /** Record one trial with outcome @p hit. */
    void
    record(bool hit)
    {
        ++tries_;
        if (hit)
            ++hits_;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return tries_ - hits_; }
    std::uint64_t tries() const { return tries_; }

    /** hits / tries (0 when empty). */
    double
    ratio() const
    {
        return tries_ == 0 ? 0.0
                           : static_cast<double>(hits_) /
                                 static_cast<double>(tries_);
    }

    /** Reset to empty. */
    void
    reset()
    {
        hits_ = 0;
        tries_ = 0;
    }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t tries_ = 0;
};

/** True when the listed members' sizes add up to sizeof(Record).
 *  The records have no padding, so a member left out of the list
 *  fails the static_assert that follows each record. */
template <class Record>
consteval bool
listsEveryMember()
{
    std::size_t bytes = 0;
    Record::fields([&]<class T>(const char *, T Record::*, StatClass) {
        bytes += sizeof(T);
    });
    return bytes == sizeof(Record);
}

static_assert(listsEveryMember<MeanAccum>());

/**
 * Call @p fn(name, x, y, cls) on each number of two records of one
 * type, in list order, descending into nested records (x from @p a,
 * y from @p b). cls is Scheduled when the member, or a record holding
 * it, is listed Scheduled.
 */
template <class A, class B, class Fn>
void
forEachStatPair(A &a, B &b, Fn &&fn,
                StatClass outer = StatClass::Deterministic)
{
    std::remove_const_t<A>::fields(
        [&](const char *name, auto m, StatClass cls) {
            if (outer == StatClass::Scheduled)
                cls = outer;
            if constexpr (std::is_class_v<
                              std::remove_cvref_t<decltype(a.*m)>>)
                forEachStatPair(a.*m, b.*m, fn, cls);
            else
                fn(name, a.*m, b.*m, cls);
        });
}

/** Call @p fn(name, value, cls) on each number of @p record (see
 *  forEachStatPair). */
template <class Record, class Fn>
void
forEachStat(Record &record, Fn &&fn)
{
    forEachStatPair(record, record,
                    [&](const char *name, auto &v, const auto &,
                        StatClass cls) { fn(name, v, cls); });
}

/** Fold @p from into @p into, number by number. */
template <class Record>
void
mergeStats(Record &into, const Record &from)
{
    forEachStatPair(into, from,
                    [](const char *, auto &a, const auto &b,
                       StatClass) { a += b; });
}

/** Bit-for-bit equality of the Deterministic numbers (a MeanAccum's
 *  raw sum, sum of squares and count). */
template <class Record>
bool
identicalStats(const Record &a, const Record &b)
{
    bool same = true;
    forEachStatPair(a, b, [&](const char *, const auto &x,
                              const auto &y, StatClass cls) {
        if (cls == StatClass::Deterministic)
            same = same && std::memcmp(&x, &y, sizeof(x)) == 0;
    });
    return same;
}

} // namespace assoc

#endif // ASSOC_UTIL_STATS_H
