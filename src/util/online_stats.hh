/**
 * @file
 * Streaming first/second-moment statistics: the mean as sum over
 * count, the variance by Welford's algorithm.
 */

#ifndef SLEEPSCALE_UTIL_ONLINE_STATS_HH
#define SLEEPSCALE_UTIL_ONLINE_STATS_HH

#include <cmath>
#include <cstdint>
#include <limits>

namespace sleepscale {

/**
 * Streaming mean/variance/min/max accumulator in O(1) space.
 *
 * The mean is the running sum over the count: samples are added to the
 * sum from +0.0 in arrival order, so the block-replay kernel, which
 * keeps the same sum per candidate, reports bit-equal means without a
 * divide per sample. Welford's online update runs alongside only as
 * the centre of the variance, which then absorbs millions of samples
 * (e.g. one per job in a day-long run) without catastrophic
 * cancellation. Coefficient of variation is exposed directly because
 * workload characterization in the paper is phrased in terms of (mean,
 * Cv) pairs.
 */
class OnlineStats
{
  public:
    /** Absorb one sample. */
    void
    add(double x)
    {
        ++_count;
        const double delta = x - _mean;
        _mean += delta / static_cast<double>(_count);
        _m2 += delta * (x - _mean);
        if (x < _min)
            _min = x;
        if (x > _max)
            _max = x;
        _sum += x;
    }

    /** Merge another accumulator into this one: sums add, the
     * variance's centres combine by parallel Welford. */
    void
    merge(const OnlineStats &other)
    {
        if (other._count == 0)
            return;
        if (_count == 0) {
            *this = other;
            return;
        }
        const double na = static_cast<double>(_count);
        const double nb = static_cast<double>(other._count);
        const double delta = other._mean - _mean;
        const double total = na + nb;
        _mean += delta * nb / total;
        _m2 += other._m2 + delta * delta * na * nb / total;
        _count += other._count;
        _sum += other._sum;
        if (other._min < _min)
            _min = other._min;
        if (other._max > _max)
            _max = other._max;
    }

    /** Number of samples absorbed so far. */
    std::uint64_t count() const { return _count; }

    /** Running sum of all samples. */
    double sum() const { return _sum; }

    /** Sample mean, sum() over count(); 0 when empty. */
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double
    variance() const
    {
        return _count > 1 ? _m2 / static_cast<double>(_count - 1) : 0.0;
    }

    /** Sample standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Coefficient of variation (stddev / mean); 0 when mean is 0. */
    double
    cv() const
    {
        return _count > 1 && mean() != 0.0 ? stddev() / mean() : 0.0;
    }

    /** Smallest sample; +inf when empty. */
    double min() const { return _min; }

    /** Largest sample; -inf when empty. */
    double max() const { return _max; }

    /** Forget all samples. */
    void reset() { *this = OnlineStats(); }

  private:
    std::uint64_t _count = 0;
    double _mean = 0.0; ///< Welford's running centre for _m2 only.
    double _m2 = 0.0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_ONLINE_STATS_HH
