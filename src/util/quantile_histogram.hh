/**
 * @file
 * Streaming quantiles through a logarithmically bucketed histogram.
 */

#ifndef SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
#define SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "util/online_stats.hh"

namespace sleepscale {

/**
 * Log-scale histogram for streaming percentile estimation.
 *
 * Day-long runtime simulations complete tens of millions of jobs, too many
 * to store individually. Every histogram shares one grid: buckets spaced
 * logarithmically from 1e-7 s to 1e5 s at 400 buckets per decade, so the
 * relative quantile error (≈0.6%) is far below the Monte-Carlo noise of
 * the experiments, and any two histograms merge.
 */
class QuantileHistogram
{
  public:
    /** Smallest resolvable value, seconds; samples below land in the
     * underflow bucket. */
    static constexpr double gridFloor = 1e-7;

    /** Largest resolvable value, seconds; samples at or above land in
     * the overflow bucket. */
    static constexpr double gridCeiling = 1e5;

    /** Resolution of the log grid. */
    static constexpr double bucketsPerDecade = 400.0;

    /** Absorb one sample (must be finite and >= 0). */
    void add(double x);

    /** Number of samples absorbed. */
    std::uint64_t count() const { return _moments.count(); }

    /** Exact streaming mean of all samples. */
    double mean() const { return _moments.mean(); }

    /** Exact streaming max. */
    double max() const { return _moments.max(); }

    /** Exact streaming min. */
    double min() const { return _moments.min(); }

    /**
     * Approximate percentile.
     *
     * @param p Percentile in [0, 100].
     * @return Upper edge of the bucket holding the p-th sample, never
     *         above the exact max; p = 0 returns the exact min. 0 when
     *         the histogram is empty.
     */
    double percentile(double p) const;

    /**
     * Approximate exceedance probability Pr(X >= x). Exact (1 or 0)
     * when x lies at or beyond the observed extremes; 0 when the
     * histogram is empty.
     */
    double exceedance(double x) const;

    /** Merge another histogram's samples into this one. */
    void merge(const QuantileHistogram &other);

    /** Forget all samples. */
    void reset();

  private:
    /** log10(gridFloor), exactly -7. */
    static constexpr double logFloor = -7.0;

    /** Bucket count of the grid: ceil(12 decades x 400) interior
     * buckets plus the underflow and overflow buckets. _buckets grows
     * to this size on the first add(). */
    static constexpr std::size_t gridBuckets = 12 * 400 + 2;

    /** Bucket array: empty until the first sample, then
     * [under, grid..., over]. Lazy allocation keeps a never-sampled
     * histogram — e.g. the response tail of an idle farm server — at
     * O(1) memory instead of ~38 KB each. */
    std::vector<std::uint64_t> _buckets;

    OnlineStats _moments;

    static std::size_t indexOf(double x);
    double upperEdge(std::size_t index) const;
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
