/**
 * @file
 * Streaming quantiles through a logarithmically bucketed histogram.
 */

#ifndef SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
#define SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sleepscale {

/**
 * Log-scale histogram for streaming percentile estimation.
 *
 * Day-long runtime simulations complete tens of millions of jobs, too many
 * to store individually. Every histogram shares one grid: buckets spaced
 * logarithmically from 1e-7 s to 1e5 s at 400 buckets per decade, so the
 * relative quantile error (≈0.6%) is far below the Monte-Carlo noise of
 * the experiments, and any two histograms merge. A sample finds its
 * bucket in a table of bucket edges built once per process (indexOf),
 * and the extremes are a count, a sum, a min and a max, so add() takes
 * no logarithm and no divide.
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

    /** Bucket count of the grid: ceil(12 decades x 400) interior
     * buckets 1 to gridBuckets - 2, plus the underflow bucket 0 and the
     * overflow bucket gridBuckets - 1. */
    static constexpr std::size_t gridBuckets = 12 * 400 + 2;

    /**
     * The bucket a sample lands in: logIndexOf(x), looked up without a
     * logarithm. A table keyed by the exponent and the top eight
     * mantissa bits of x (256 cells per binary octave, each narrower
     * than a bucket) gives a starting bucket, and one compare against
     * the next bucket's first double finishes the lookup. The tables
     * are built once per process, by bisecting logIndexOf() itself.
     */
    static std::size_t indexOf(double x);

    /** The bucket by definition: 0 below gridFloor, the overflow
     * bucket at or above gridCeiling, else 1 + floor((log10 x - log10
     * gridFloor) x bucketsPerDecade), capped at the last interior
     * bucket. indexOf() returns the same bucket for every double. */
    static std::size_t logIndexOf(double x);

    /** The smallest double logIndexOf() maps to interior bucket
     * `index` (1 to gridBuckets - 2); bucket 1 starts at gridFloor. */
    static double bucketStart(std::size_t index);

    /** Absorb one sample (must be finite and >= 0). */
    void add(double x);

    /** Number of samples absorbed. */
    std::uint64_t count() const { return _count; }

    /** Mean of all samples, the sum over the count as in OnlineStats;
     * 0 when empty. */
    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    /** Exact streaming max; -inf when empty. */
    double max() const { return _max; }

    /** Exact streaming min; +inf when empty. */
    double min() const { return _min; }

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

    /** Bucket array: empty until the first sample, then gridBuckets
     * counts [under, grid..., over]. Lazy allocation keeps a
     * never-sampled histogram — e.g. the response tail of an idle farm
     * server — at O(1) memory instead of ~38 KB each. */
    std::vector<std::uint64_t> _buckets;

    std::uint64_t _count = 0;
    double _sum = 0.0; ///< Samples summed in arrival order from +0.0.
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();

    double upperEdge(std::size_t index) const;
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
