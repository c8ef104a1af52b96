/**
 * @file
 * Unit and property tests for the distribution families.
 *
 * The central property: every family parameterized by (mean, Cv) must
 * reproduce those two moments in large samples — the paper's workload
 * synthesis (Table 5) relies on exactly that.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "util/error.hh"
#include "util/online_stats.hh"
#include "util/rng.hh"
#include "workload/distribution.hh"

namespace sleepscale {
namespace {

OnlineStats
sampleMoments(const Distribution &dist, int n = 400000,
              std::uint64_t seed = 99)
{
    Rng rng(seed);
    OnlineStats stats;
    for (int i = 0; i < n; ++i)
        stats.add(dist.sample(rng));
    return stats;
}

// -------------------------------------------------- per-family unit tests

TEST(Deterministic, AlwaysReturnsValue)
{
    DeterministicDist dist(2.5);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(dist.sample(rng), 2.5);
    EXPECT_DOUBLE_EQ(dist.mean(), 2.5);
    EXPECT_DOUBLE_EQ(dist.cv(), 0.0);
}

TEST(Exponential, MomentsMatch)
{
    ExponentialDist dist(0.194);
    const OnlineStats stats = sampleMoments(dist);
    EXPECT_NEAR(stats.mean(), 0.194, 0.002);
    EXPECT_NEAR(stats.cv(), 1.0, 0.02);
}

TEST(Exponential, RejectsNonPositiveMean)
{
    EXPECT_THROW(ExponentialDist(0.0), ConfigError);
}

TEST(Gamma, LowCvMomentsMatch)
{
    GammaDist dist(5.0, 0.4);
    EXPECT_NEAR(dist.shape(), 1.0 / 0.16, 1e-9);
    const OnlineStats stats = sampleMoments(dist);
    EXPECT_NEAR(stats.mean(), 5.0, 0.05);
    EXPECT_NEAR(stats.cv(), 0.4, 0.01);
}

TEST(Gamma, ShapeBelowOneStillMatches)
{
    GammaDist dist(2.0, 1.5); // shape = 0.44
    const OnlineStats stats = sampleMoments(dist);
    EXPECT_NEAR(stats.mean(), 2.0, 0.03);
    EXPECT_NEAR(stats.cv(), 1.5, 0.03);
}

TEST(HyperExponential, MomentsMatch)
{
    HyperExponentialDist dist(0.092, 3.6); // the Mail service process
    const OnlineStats stats = sampleMoments(dist, 2000000);
    EXPECT_NEAR(stats.mean(), 0.092, 0.002);
    EXPECT_NEAR(stats.cv(), 3.6, 0.1);
}

TEST(HyperExponential, BalancedMeansStructure)
{
    HyperExponentialDist dist(1.0, 2.0);
    // p1 = (1 + sqrt(3/5)) / 2
    EXPECT_NEAR(dist.phaseProbability(),
                0.5 * (1.0 + std::sqrt(3.0 / 5.0)), 1e-12);
}

TEST(HyperExponential, RejectsCvBelowOne)
{
    EXPECT_THROW(HyperExponentialDist(1.0, 0.5), ConfigError);
}

TEST(Clone, ProducesIndependentEquivalents)
{
    HyperExponentialDist original(1.0, 2.5);
    const auto copy = original.clone();
    EXPECT_EQ(copy->name(), original.name());
    EXPECT_DOUBLE_EQ(copy->mean(), original.mean());
    EXPECT_DOUBLE_EQ(copy->cv(), original.cv());
}

// ----------------------------------------------------- fitting selection

TEST(Fit, SelectsFamilyByCv)
{
    EXPECT_EQ(fitDistribution(1.0, 0.0)->name(), "deterministic");
    EXPECT_EQ(fitDistribution(1.0, 0.5)->name(), "gamma");
    EXPECT_EQ(fitDistribution(1.0, 1.0)->name(), "exponential");
    EXPECT_EQ(fitDistribution(1.0, 1.1)->name(), "hyperexponential");
    EXPECT_EQ(fitDistribution(1.0, 3.6)->name(), "hyperexponential");
}

TEST(Fit, RejectsInvalidTargets)
{
    EXPECT_THROW(fitDistribution(0.0, 1.0), ConfigError);
    EXPECT_THROW(fitDistribution(1.0, -0.5), ConfigError);
}

// ----------------------------------------- property sweep: moment match

struct MomentTarget
{
    double mean;
    double cv;
};

class MomentMatchTest : public ::testing::TestWithParam<MomentTarget>
{
};

TEST_P(MomentMatchTest, FittedDistributionReproducesMoments)
{
    const auto [mean, cv] = GetParam();
    const auto dist = fitDistribution(mean, cv);
    EXPECT_NEAR(dist->mean(), mean, 1e-12);
    EXPECT_NEAR(dist->cv(), cv, 1e-9);

    const OnlineStats stats = sampleMoments(*dist, 500000);
    EXPECT_NEAR(stats.mean() / mean, 1.0, 0.02);
    if (cv > 0.0) {
        EXPECT_NEAR(stats.cv() / cv, 1.0, 0.05);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table5AndBeyond, MomentMatchTest,
    ::testing::Values(
        // The paper's Table 5 rows.
        MomentTarget{1.1, 1.1},      // DNS inter-arrival
        MomentTarget{0.194, 1.0},    // DNS service
        MomentTarget{0.206, 1.9},    // Mail inter-arrival
        MomentTarget{0.092, 3.6},    // Mail service
        MomentTarget{319e-6, 1.2},   // Google inter-arrival
        MomentTarget{4.2e-3, 1.1},   // Google service
        // Wider stress grid.
        MomentTarget{1.0, 0.2}, MomentTarget{1.0, 0.8},
        MomentTarget{10.0, 2.5}, MomentTarget{1e-4, 1.5},
        MomentTarget{5.0, 0.0}));

// --------------------------------------- CDF + Kolmogorov-Smirnov sweep

/** One-sample K-S statistic of `n` draws against the analytic CDF. */
double
ksStatistic(const Distribution &dist, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> draws(n);
    for (double &x : draws)
        x = dist.sample(rng);
    std::sort(draws.begin(), draws.end());
    double d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double f = dist.cdf(draws[i]);
        const double lo = static_cast<double>(i) /
                          static_cast<double>(n);
        const double hi = static_cast<double>(i + 1) /
                          static_cast<double>(n);
        d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
    }
    return d;
}

class KsTest : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<Distribution>
    make(int which) const
    {
        switch (which) {
          case 0:
            return std::make_unique<ExponentialDist>(0.194);
          case 1:
            return std::make_unique<GammaDist>(5.0, 0.4);
          case 2:
            return std::make_unique<GammaDist>(2.0, 1.5);
          case 3:
            return std::make_unique<HyperExponentialDist>(0.092, 3.6);
          default:
            return nullptr;
        }
    }
};

TEST_P(KsTest, SamplesFollowTheAnalyticCdf)
{
    const auto dist = make(GetParam());
    ASSERT_NE(dist, nullptr);
    // 50k samples: the 1% critical value of the K-S statistic is
    // 1.63 / sqrt(n) ~ 0.0073; use 0.01 for slack across seeds.
    const double d = ksStatistic(*dist, 50000, 1234);
    EXPECT_LT(d, 0.010) << dist->name();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, KsTest, ::testing::Range(0, 4));

TEST(Cdf, BoundaryValues)
{
    const ExponentialDist exp_dist(1.0);
    EXPECT_DOUBLE_EQ(exp_dist.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(exp_dist.cdf(-1.0), 0.0);
    EXPECT_NEAR(exp_dist.cdf(1e9), 1.0, 1e-12);
    EXPECT_NEAR(exp_dist.cdf(1.0), 1.0 - std::exp(-1.0), 1e-15);

    const DeterministicDist point(2.0);
    EXPECT_DOUBLE_EQ(point.cdf(1.999), 0.0);
    EXPECT_DOUBLE_EQ(point.cdf(2.0), 1.0);
}

TEST(Cdf, GammaMatchesErlangClosedForm)
{
    // Shape 2 (cv = 1/sqrt(2)): F(x) = 1 - e^{-x/s}(1 + x/s).
    const double cv = 1.0 / std::sqrt(2.0);
    const GammaDist gamma(2.0, cv);
    const double scale = 1.0; // mean 2 / shape 2
    for (double x : {0.5, 1.0, 2.0, 5.0}) {
        const double expected =
            1.0 - std::exp(-x / scale) * (1.0 + x / scale);
        EXPECT_NEAR(gamma.cdf(x), expected, 1e-10) << x;
    }
}

TEST(Cdf, MonotoneNonDecreasingEverywhere)
{
    const HyperExponentialDist dist(1.0, 2.5);
    double previous = -1.0;
    for (double x = 0.0; x < 20.0; x += 0.1) {
        const double f = dist.cdf(x);
        EXPECT_GE(f, previous);
        EXPECT_LE(f, 1.0);
        previous = f;
    }
}

} // namespace
} // namespace sleepscale
