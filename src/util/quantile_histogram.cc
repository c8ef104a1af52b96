#include "util/quantile_histogram.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

std::size_t
QuantileHistogram::indexOf(double x)
{
    if (x < gridFloor)
        return 0;
    if (x >= gridCeiling)
        return gridBuckets - 1;
    const double pos = (std::log10(x) - logFloor) * bucketsPerDecade;
    const auto raw = static_cast<std::size_t>(pos);
    return std::min(raw + 1, gridBuckets - 2);
}

double
QuantileHistogram::upperEdge(std::size_t index) const
{
    if (index == 0)
        return gridFloor;
    if (index >= gridBuckets - 1)
        return _moments.max();
    const double exponent =
        logFloor + static_cast<double>(index) / bucketsPerDecade;
    return std::pow(10.0, exponent);
}

void
QuantileHistogram::add(double x)
{
    // NaN would reach an undefined float-to-index cast in indexOf and
    // +inf would poison the exact moments, so both are rejected rather
    // than silently landing in a boundary bucket.
    fatalIf(!std::isfinite(x) || x < 0.0,
            "QuantileHistogram::add: samples must be finite and >= 0");
    if (_buckets.empty())
        _buckets.assign(gridBuckets, 0);
    ++_buckets[indexOf(x)];
    _moments.add(x);
}

double
QuantileHistogram::percentile(double p) const
{
    fatalIf(p < 0.0 || p > 100.0,
            "QuantileHistogram::percentile: p must be in [0, 100]");
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    // p = 0 would otherwise report the first bucket's upper edge (the
    // floor when the data sit in the underflow bucket) even though the
    // exact minimum is tracked; both extremes answer from the moments.
    if (p == 0.0)
        return _moments.min();
    const double target = p / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (static_cast<double>(seen) >= target) {
            // A bucket's upper edge can exceed the largest sample seen
            // (the max lands mid-bucket); never report past the max.
            return std::min(upperEdge(i), _moments.max());
        }
    }
    return _moments.max();
}

double
QuantileHistogram::exceedance(double x) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    // Beyond the observed extremes the histogram's bucket resolution
    // does not apply; answer exactly. Without these guards a query
    // above the ceiling counted every overflow sample (even those
    // smaller than x) and a query below the floor depended on the
    // underflow bucket rather than the data.
    if (x > _moments.max())
        return 0.0;
    if (x <= _moments.min())
        return 1.0;
    const std::size_t cut = indexOf(x);
    std::uint64_t at_least = 0;
    for (std::size_t i = cut; i < _buckets.size(); ++i)
        at_least += _buckets[i];
    return static_cast<double>(at_least) / static_cast<double>(n);
}

void
QuantileHistogram::merge(const QuantileHistogram &other)
{
    // An unallocated (never-sampled) source contributes nothing; the
    // early-out is what makes merging a mostly-idle farm's windows
    // O(active servers) rather than O(farm x buckets).
    if (other._buckets.empty())
        return;
    if (_buckets.empty())
        _buckets.assign(gridBuckets, 0);
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _moments.merge(other._moments);
}

void
QuantileHistogram::reset()
{
    for (auto &bucket : _buckets)
        bucket = 0;
    _moments.reset();
}

} // namespace sleepscale
