#include "util/quantile_histogram.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "util/error.hh"

namespace sleepscale {

namespace {

using Grid = QuantileHistogram;

/** The binary octaves [2^-24, 2^17) hold the whole grid. */
constexpr double octaveFloor = 0x1p-24;
constexpr double octaveCeiling = 0x1p17;
static_assert(octaveFloor <= Grid::gridFloor &&
                  Grid::gridCeiling < octaveCeiling,
              "the cell table spans the grid");

/**
 * A cell is the set of doubles that share an exponent and the top eight
 * mantissa bits: 256 cells per binary octave. A cell spans a ratio of
 * at most 1 + 1/256, less than a bucket's 10^(1/400) = 1.0058, so it
 * holds at most one bucket's first double.
 */
constexpr int cellShift = 52 - 8;

constexpr std::uint64_t
cellOf(double x)
{
    return std::bit_cast<std::uint64_t>(x) >> cellShift;
}

constexpr std::uint64_t firstCell = cellOf(octaveFloor);
constexpr std::size_t cellCount = cellOf(octaveCeiling) - firstCell;

/** The first double of cell `cell` (an absolute cell number). */
double
cellStart(std::uint64_t cell)
{
    return std::bit_cast<double>(cell << cellShift);
}

/**
 * The smallest double logIndexOf() maps to `index` or beyond (2 <=
 * index <= gridBuckets - 2). Positive doubles order like their bit
 * patterns, so this bisects over bits, inside a bracket around the
 * nominal edge that is widened until logIndexOf() steps within it.
 */
double
firstDoubleOf(std::size_t index)
{
    const double nominal =
        Grid::gridFloor *
        std::pow(10.0, static_cast<double>(index - 1) /
                           Grid::bucketsPerDecade);
    const auto bucket = [](std::uint64_t bits) {
        return Grid::logIndexOf(std::bit_cast<double>(bits));
    };
    const std::uint64_t centre = std::bit_cast<std::uint64_t>(nominal);
    std::uint64_t below = centre - 1024;
    for (std::uint64_t reach = 2048; bucket(below) >= index; reach *= 2)
        below = reach < centre ? centre - reach : 0;
    std::uint64_t above = centre + 1024;
    for (std::uint64_t reach = 2048; bucket(above) < index; reach *= 2)
        above = centre + reach;
    // bucket(below) < index <= bucket(above).
    while (above - below > 1) {
        const std::uint64_t middle = below + (above - below) / 2;
        if (bucket(middle) >= index)
            above = middle;
        else
            below = middle;
    }
    return std::bit_cast<double>(above);
}

/** The two tables behind indexOf(), built at its first call. Both are
 * fixed-size members of one static object, so building them allocates
 * nothing. */
struct EdgeTable
{
    /** start[k]: bucketStart(k) for the interior buckets; start[0] is
     * unused and start[gridBuckets - 1] is gridCeiling. */
    std::array<double, Grid::gridBuckets> start{};

    /** The bucket holding each cell's first double, or bucket 1 for
     * the cells below gridFloor. */
    std::array<std::uint16_t, cellCount> first{};

    EdgeTable()
    {
        constexpr std::size_t last = Grid::gridBuckets - 2;
        start[1] = Grid::gridFloor;
        for (std::size_t k = 2; k <= last; ++k) {
            start[k] = firstDoubleOf(k);
            if (!(start[k] > start[k - 1]))
                panic("QuantileHistogram: bucket edges out of order");
        }
        start[last + 1] = Grid::gridCeiling;

        std::size_t bucket = 1;
        for (std::size_t c = 0; c < cellCount; ++c) {
            const double lo = cellStart(firstCell + c);
            while (bucket < last && start[bucket + 1] <= lo)
                ++bucket;
            first[c] = static_cast<std::uint16_t>(bucket);
            if (bucket + 2 <= last &&
                start[bucket + 2] < cellStart(firstCell + c + 1))
                panic("QuantileHistogram: two bucket edges in one cell");
        }
    }
};

const EdgeTable &
edgeTable()
{
    static const EdgeTable table;
    return table;
}

} // namespace

std::size_t
QuantileHistogram::logIndexOf(double x)
{
    if (!(x >= gridFloor))
        return 0;
    if (x >= gridCeiling)
        return gridBuckets - 1;
    const double pos = (std::log10(x) - logFloor) * bucketsPerDecade;
    const auto raw = static_cast<std::size_t>(pos);
    return std::min(raw + 1, gridBuckets - 2);
}

std::size_t
QuantileHistogram::indexOf(double x)
{
    if (!(x >= gridFloor))
        return 0;
    if (x >= gridCeiling)
        return gridBuckets - 1;
    const EdgeTable &table = edgeTable();
    const std::size_t bucket = table.first[cellOf(x) - firstCell];
    return bucket + (x >= table.start[bucket + 1] ? 1 : 0);
}

double
QuantileHistogram::bucketStart(std::size_t index)
{
    fatalIf(index < 1 || index > gridBuckets - 2,
            "QuantileHistogram::bucketStart: not an interior bucket");
    return edgeTable().start[index];
}

double
QuantileHistogram::upperEdge(std::size_t index) const
{
    if (index == 0)
        return gridFloor;
    if (index >= gridBuckets - 1)
        return _max;
    const double exponent =
        logFloor + static_cast<double>(index) / bucketsPerDecade;
    return std::pow(10.0, exponent);
}

void
QuantileHistogram::add(double x)
{
    // NaN would land in the underflow bucket and +inf would poison the
    // exact extremes, so both are rejected rather than silently
    // landing in a boundary bucket.
    fatalIf(!std::isfinite(x) || x < 0.0,
            "QuantileHistogram::add: samples must be finite and >= 0");
    if (_buckets.empty())
        _buckets.assign(gridBuckets, 0);
    ++_buckets[indexOf(x)];
    ++_count;
    _sum += x;
    if (x < _min)
        _min = x;
    if (x > _max)
        _max = x;
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
    // exact minimum is tracked; both extremes answer exactly.
    if (p == 0.0)
        return _min;
    const double target = p / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (static_cast<double>(seen) >= target) {
            // A bucket's upper edge can exceed the largest sample seen
            // (the max lands mid-bucket); never report past the max.
            return std::min(upperEdge(i), _max);
        }
    }
    return _max;
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
    if (x > _max)
        return 0.0;
    if (x <= _min)
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
    _count += other._count;
    _sum += other._sum;
    if (other._min < _min)
        _min = other._min;
    if (other._max > _max)
        _max = other._max;
}

void
QuantileHistogram::reset()
{
    for (auto &bucket : _buckets)
        bucket = 0;
    _count = 0;
    _sum = 0.0;
    _min = std::numeric_limits<double>::infinity();
    _max = -std::numeric_limits<double>::infinity();
}

} // namespace sleepscale
