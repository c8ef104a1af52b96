/**
 * @file
 * Unit tests for the foundation utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/csv.hh"
#include "util/error.hh"
#include "util/online_stats.hh"
#include "util/quantile_histogram.hh"
#include "util/rng.hh"
#include "util/sample_stats.hh"
#include "util/table_printer.hh"

namespace sleepscale {
namespace {

// ---------------------------------------------------------------- errors

TEST(Error, FatalThrowsConfigError)
{
    EXPECT_THROW(fatal("bad input"), ConfigError);
}

TEST(Error, PanicThrowsInternalError)
{
    EXPECT_THROW(panic("broken invariant"), InternalError);
}

TEST(Error, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_THROW(fatalIf(true, "bad"), ConfigError);
}

TEST(Error, MessagesAreForwarded)
{
    try {
        fatal("specific cause");
        FAIL() << "fatal() must throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("specific cause"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(2.5, 3.5);
        ASSERT_GE(u, 2.5);
        ASSERT_LT(u, 3.5);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    OnlineStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.005);
}

TEST(Rng, ExponentialMatchesMeanAndCv)
{
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 400000; ++i)
        stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.cv(), 1.0, 0.02);
}

TEST(Rng, NormalMatchesMoments)
{
    Rng rng(17);
    OnlineStats stats;
    for (int i = 0; i < 400000; ++i)
        stats.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.02);
}

TEST(Rng, UniformIntCoversRangeUniformly)
{
    Rng rng(19);
    std::array<int, 7> counts{};
    for (int i = 0; i < 70000; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(23);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    OnlineStats diff;
    for (int i = 0; i < 10000; ++i)
        diff.add(a.uniform() - b.uniform());
    EXPECT_NEAR(diff.mean(), 0.0, 0.02);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, InvalidArgumentsThrow)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), ConfigError);
    EXPECT_THROW(rng.exponential(-1.0), ConfigError);
    EXPECT_THROW(rng.uniformInt(0), ConfigError);
    EXPECT_THROW(rng.uniform(2.0, 1.0), ConfigError);
    EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
}

// ----------------------------------------------------------- OnlineStats

TEST(OnlineStats, KnownSmallSample)
{
    OnlineStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsSafe)
{
    OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.cv(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential)
{
    Rng rng(29);
    OnlineStats whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.exponential(2.0);
        whole.add(x);
        (i < 400 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptySides)
{
    OnlineStats empty, filled;
    filled.add(1.0);
    filled.add(3.0);

    OnlineStats a = filled;
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    OnlineStats b = empty;
    b.merge(filled);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
    EXPECT_EQ(b.count(), 2u);
}

TEST(OnlineStats, MeanIsSumOverCount)
{
    // The mean is the running sum over the count, bit for bit, which is
    // what the block-replay kernel reports for a candidate's responses.
    Rng rng(31);
    OnlineStats whole, left, right;
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.exponential(0.2);
        sum += x;
        whole.add(x);
        (i < 400 ? left : right).add(x);
    }
    EXPECT_EQ(whole.sum(), sum);
    EXPECT_EQ(whole.mean(), sum / 1000.0);

    // A merge adds the sums, so the merged mean is their sum over the
    // merged count.
    const double merged = left.sum() + right.sum();
    left.merge(right);
    EXPECT_EQ(left.sum(), merged);
    EXPECT_EQ(left.mean(), merged / 1000.0);
    OnlineStats empty;
    empty.merge(whole);
    EXPECT_EQ(empty.mean(), whole.mean());

    EXPECT_EQ(OnlineStats{}.mean(), 0.0);
    whole.reset();
    EXPECT_EQ(whole.mean(), 0.0);
}

TEST(OnlineStats, CvOfConstantIsZero)
{
    OnlineStats stats;
    for (int i = 0; i < 10; ++i)
        stats.add(4.2);
    EXPECT_NEAR(stats.cv(), 0.0, 1e-9);
}

// ----------------------------------------------------------- SampleStats

TEST(SampleStats, PercentileInterpolates)
{
    SampleStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(25.0), 2.0);
    EXPECT_DOUBLE_EQ(stats.percentile(12.5), 1.5);
}

TEST(SampleStats, ExceedanceCountsInclusive)
{
    SampleStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.exceedance(2.5), 0.5);
    EXPECT_DOUBLE_EQ(stats.exceedance(1.0), 1.0);
    EXPECT_DOUBLE_EQ(stats.exceedance(4.5), 0.0);
}

TEST(SampleStats, AddAfterPercentileStillCorrect)
{
    SampleStats stats;
    stats.add(3.0);
    stats.add(1.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 3.0);
    stats.add(5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 3.0);
}

TEST(SampleStats, InvalidPercentileThrows)
{
    SampleStats stats;
    stats.add(1.0);
    EXPECT_THROW(stats.percentile(-1.0), ConfigError);
    EXPECT_THROW(stats.percentile(101.0), ConfigError);
}

// ----------------------------------------------------- QuantileHistogram

TEST(QuantileHistogram, PercentileTracksExactWithinResolution)
{
    Rng rng(31);
    QuantileHistogram hist;
    SampleStats exact;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.exponential(0.2);
        hist.add(x);
        exact.add(x);
    }
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
        const double approx = hist.percentile(p);
        const double truth = exact.percentile(p);
        EXPECT_NEAR(approx / truth, 1.0, 0.02)
            << "p=" << p;
    }
    EXPECT_NEAR(hist.mean(), exact.mean(), 1e-9);
}

TEST(QuantileHistogram, ExceedanceMatchesExact)
{
    Rng rng(37);
    QuantileHistogram hist;
    SampleStats exact;
    for (int i = 0; i < 50000; ++i) {
        const double x = rng.exponential(1.0);
        hist.add(x);
        exact.add(x);
    }
    EXPECT_NEAR(hist.exceedance(1.0), exact.exceedance(1.0), 0.01);
    EXPECT_NEAR(hist.exceedance(3.0), exact.exceedance(3.0), 0.01);
}

TEST(QuantileHistogram, UnderflowAndOverflowLand)
{
    QuantileHistogram hist;
    hist.add(1e-9);
    hist.add(1e9);
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1e9);
}

TEST(QuantileHistogram, MergeCombinesCounts)
{
    QuantileHistogram a, b;
    a.add(1.0);
    b.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_NEAR(a.mean(), 1.5, 1e-12);
}

TEST(QuantileHistogram, RejectsNegativeSamples)
{
    QuantileHistogram hist;
    EXPECT_THROW(hist.add(-1.0), ConfigError);
}

TEST(QuantileHistogram, ResetForgets)
{
    QuantileHistogram hist;
    hist.add(1.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
}

// Boundary audit (the grid spans 1e-7 s to 1e5 s): samples beyond the
// grid, empty queries, and non-finite inputs must never silently
// misreport.

TEST(QuantileHistogram, RejectsNonFiniteSamples)
{
    QuantileHistogram hist;
    // NaN used to reach an undefined float-to-index cast; +inf would
    // poison the exact max every boundary answer leans on.
    EXPECT_THROW(hist.add(std::nan("")), ConfigError);
    EXPECT_THROW(hist.add(std::numeric_limits<double>::infinity()),
                 ConfigError);
    EXPECT_EQ(hist.count(), 0u);
}

TEST(QuantileHistogram, EmptyHistogramQueriesAreSafe)
{
    const QuantileHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(1e12), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(QuantileHistogram, AllSamplesBelowFloor)
{
    QuantileHistogram hist;
    hist.add(1e-9);
    hist.add(5e-9);
    hist.add(2e-8);
    // The percentile never exceeds the exact max even though every
    // sample sits in the underflow bucket (whose edge is the floor).
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 2e-8);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 2e-8);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1e-9);
    // Exceedance is exact at and beyond the observed extremes.
    EXPECT_DOUBLE_EQ(hist.exceedance(1e-9), 1.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(3e-8), 0.0);
}

TEST(QuantileHistogram, AllSamplesAboveCeiling)
{
    QuantileHistogram hist;
    hist.add(2e5);
    hist.add(3e6);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 3e6);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 2e5);
    // A query between the overflow samples must not count the smaller
    // one as exceeding it just because both share the overflow bucket.
    EXPECT_DOUBLE_EQ(hist.exceedance(1e7), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(2e5), 1.0);
}

TEST(QuantileHistogram, PercentileZeroReturnsExactMin)
{
    QuantileHistogram hist;
    hist.add(3.0);
    hist.add(7.0);
    // Used to report the underflow bucket's upper edge (the floor).
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 3.0);
    EXPECT_GE(hist.percentile(100.0), 7.0 * (1.0 - 1e-9));
    EXPECT_LE(hist.percentile(100.0), 7.0);
}

TEST(QuantileHistogram, ExactlyAtFloorAndCeilingEdges)
{
    constexpr double floor = QuantileHistogram::gridFloor;
    constexpr double ceiling = QuantileHistogram::gridCeiling;
    QuantileHistogram hist;
    hist.add(floor);   // first grid bucket, not underflow
    hist.add(ceiling); // overflow by the ">= ceiling" convention
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), ceiling);
    EXPECT_DOUBLE_EQ(hist.exceedance(ceiling), 0.5);
    // The floor sits in the first grid bucket, whose upper edge is one
    // bucket width above it.
    const double first_edge = std::pow(
        10.0, std::log10(floor) + 1.0 / QuantileHistogram::bucketsPerDecade);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), first_edge);
}

TEST(QuantileHistogram, BucketEdgesFollowTheLogGrid)
{
    // Bucket k's upper edge is 10^(log10(1e-7) + k / 400), computed
    // from the run-time log10 of the floor: 1.0 lands in bucket
    // 7 * 400 + 1. Pins the grid arithmetic to the bit.
    QuantileHistogram hist;
    hist.add(1.0);
    hist.add(2.0);
    EXPECT_EQ(hist.percentile(50.0),
              std::pow(10.0, std::log10(1e-7) + 2801.0 / 400.0));
}

TEST(QuantileHistogram, TableIndexMatchesTheLogIndex)
{
    // indexOf() finds a bucket in tables bisected from logIndexOf(); the
    // two must agree on every double, which is checked within 64 ulps
    // of each interior bucket edge, on log-uniform samples across the
    // grid and beyond it, and at the extremes.
    using Q = QuantileHistogram;
    constexpr std::size_t last = Q::gridBuckets - 2;
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t probes = 0;
    std::size_t mismatches = 0;
    const auto probe = [&](double x) {
        ++probes;
        if (Q::indexOf(x) != Q::logIndexOf(x) && ++mismatches <= 5) {
            ADD_FAILURE() << "x = " << std::hexfloat << x << ": table "
                          << Q::indexOf(x) << ", log10 "
                          << Q::logIndexOf(x);
        }
    };
    for (std::size_t k = 1; k <= last; ++k) {
        const double edge = Q::bucketStart(k);
        ASSERT_EQ(Q::logIndexOf(edge), k);
        ASSERT_LT(Q::logIndexOf(std::nextafter(edge, 0.0)), k);
        double x = edge;
        for (int i = 0; i < 64; ++i)
            x = std::nextafter(x, 0.0);
        for (int i = 0; i <= 128; ++i, x = std::nextafter(x, inf))
            probe(x);
    }
    Rng rng(37);
    for (int i = 0; i < 1000000; ++i)
        probe(std::pow(10.0, rng.uniform(-8.0, 6.0)));
    for (const double x :
         {0.0, -0.0, std::numeric_limits<double>::denorm_min(), Q::gridFloor,
          std::nextafter(Q::gridFloor, 0.0), Q::gridCeiling,
          std::nextafter(Q::gridCeiling, 0.0), 1e300,
          std::numeric_limits<double>::max()})
        probe(x);
    EXPECT_EQ(mismatches, 0u) << "of " << probes << " probes";

    EXPECT_EQ(Q::indexOf(0.0), 0u);
    EXPECT_EQ(Q::indexOf(Q::gridFloor), 1u);
    EXPECT_EQ(Q::indexOf(std::nextafter(Q::gridCeiling, 0.0)), last);
    EXPECT_EQ(Q::indexOf(Q::gridCeiling), last + 1);
    EXPECT_THROW(Q::bucketStart(0), ConfigError);
    EXPECT_THROW(Q::bucketStart(last + 1), ConfigError);
}

// ------------------------------------------------------------------- CSV

TEST(Csv, RoundTripPreservesValues)
{
    CsvTable table;
    table.headers = {"a", "b"};
    table.addRow({1.5, -2.25});
    table.addRow({3.14159, 0.0});
    const CsvTable parsed = fromCsv(toCsv(table));
    ASSERT_EQ(parsed.headers, table.headers);
    ASSERT_EQ(parsed.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.rows[0][0], 1.5);
    EXPECT_DOUBLE_EQ(parsed.rows[1][0], 3.14159);
}

TEST(Csv, ColumnExtraction)
{
    CsvTable table;
    table.headers = {"x", "y"};
    table.addRow({1.0, 10.0});
    table.addRow({2.0, 20.0});
    const auto y = table.column("y");
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[1], 20.0);
    EXPECT_THROW(table.column("z"), ConfigError);
}

TEST(Csv, RowWidthValidated)
{
    CsvTable table;
    table.headers = {"a", "b"};
    EXPECT_THROW(table.addRow({1.0}), ConfigError);
}

TEST(Csv, NonNumericCellRejected)
{
    EXPECT_THROW(fromCsv("a,b\n1,zzz\n"), ConfigError);
}

TEST(Csv, ParsesWholeCellsOfCrlfLines)
{
    // The whole cell must parse, as in the trace and replay loaders:
    // "0.5x" is a typo, not 0.5.
    EXPECT_THROW(fromCsv("a,b\n0.5x,2\n"), ConfigError);

    // A CRLF file names its last column "b", not "b\r".
    const CsvTable parsed = fromCsv("a,b\r\n0.5,2\r\n\r\n3,4\r\n");
    EXPECT_EQ(parsed.headers, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(parsed.rows, (std::vector<std::vector<double>>{{0.5, 2.0},
                                                             {3.0, 4.0}}));
}

TEST(Csv, FileRoundTrip)
{
    CsvTable table;
    table.headers = {"v"};
    table.addRow({42.0});
    const std::string path = "/tmp/sleepscale_csv_test.csv";
    writeCsvFile(path, table);
    const CsvTable loaded = readCsvFile(path);
    EXPECT_DOUBLE_EQ(loaded.rows.at(0).at(0), 42.0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinter, RejectsWrongRowWidth)
{
    TablePrinter printer({"name", "value"});
    printer.addRow({std::string("x"), std::string("1")});
    EXPECT_THROW(printer.addRow({1.23456}, 2), ConfigError);
}

TEST(TablePrinter, PrintsRows)
{
    TablePrinter printer({"col"});
    printer.addRow({3.14159}, 2);
    std::ostringstream out;
    printer.print(out);
    EXPECT_NE(out.str().find("3.14"), std::string::npos);
    EXPECT_NE(out.str().find("col"), std::string::npos);
}

} // namespace
} // namespace sleepscale
