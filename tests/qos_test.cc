/**
 * @file
 * Tests for QoS constraints (paper Section 5.1.1 budgets).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/qos.hh"
#include "power/platform_model.hh"
#include "util/error.hh"

namespace sleepscale {
namespace {

SimStats
statsWithResponses(std::initializer_list<double> responses)
{
    SimStats stats;
    for (double r : responses) {
        stats.response.add(r);
        stats.responseHistogram.add(r);
        ++stats.completions;
    }
    stats.windowEnd = 1.0;
    return stats;
}

TEST(Qos, BaselineMeanBudgetMatchesPaperFormula)
{
    // ρ_b = 0.8 with a Google job: µE[R] = 1/(1-0.8) = 5, so the budget
    // is 5 service times (the Figure 5 vertical bar).
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, 4.2e-3);
    EXPECT_EQ(qos.metric(), QosMetric::MeanResponse);
    EXPECT_NEAR(qos.budget(), 5.0 * 4.2e-3, 1e-12);

    const QosConstraint tighter =
        QosConstraint::fromBaselineMean(0.6, 4.2e-3);
    EXPECT_LT(tighter.budget(), qos.budget());
}

TEST(Qos, BaselineTailBudgetUsesLogInverse)
{
    const QosConstraint qos =
        QosConstraint::fromBaselineTail(0.8, 0.194, 0.05);
    EXPECT_EQ(qos.metric(), QosMetric::TailResponse);
    EXPECT_NEAR(qos.budget(), std::log(20.0) * 0.194 / 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(qos.quantile(), 95.0);
}

TEST(Qos, MeanSatisfactionUsesTheMean)
{
    const QosConstraint qos = QosConstraint::meanBudget(2.0);
    EXPECT_TRUE(qos.satisfiedBy(statsWithResponses({1.0, 2.5})));
    EXPECT_FALSE(qos.satisfiedBy(statsWithResponses({1.0, 4.0})));
}

TEST(Qos, TailSatisfactionUsesThePercentile)
{
    const QosConstraint qos = QosConstraint::tailBudget(3.0, 95.0);
    SimStats ok;
    SimStats bad;
    for (int i = 0; i < 100; ++i) {
        ok.responseHistogram.add(i < 96 ? 1.0 : 10.0);
        bad.responseHistogram.add(i < 90 ? 1.0 : 10.0);
    }
    ok.completions = bad.completions = 100;
    EXPECT_TRUE(qos.satisfiedBy(ok));
    EXPECT_FALSE(qos.satisfiedBy(bad));
}

TEST(Qos, EmptyWindowNeverSatisfies)
{
    // A window that completed no job reads a 0 s mean and a 0 s
    // percentile, but it has no response statistic to meet a budget
    // with.
    const SimStats empty;
    EXPECT_FALSE(QosConstraint::meanBudget(2.0).satisfiedBy(empty));
    EXPECT_FALSE(QosConstraint::tailBudget(3.0, 95.0).satisfiedBy(empty));
    EXPECT_TRUE(
        QosConstraint::meanBudget(2.0).satisfiedBy(statsWithResponses({1.0})));
}

TEST(Qos, MeasuredValueReportsTheRightStatistic)
{
    const SimStats stats = statsWithResponses({1.0, 3.0});
    EXPECT_DOUBLE_EQ(
        QosConstraint::meanBudget(1.0).measuredValue(stats), 2.0);
    EXPECT_GE(QosConstraint::tailBudget(1.0).measuredValue(stats), 3.0);
}

TEST(Qos, AnalyticMeanValueDelegatesToClosedForm)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const double lambda = 0.3 * mu;
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C6S0Idle)};
    const QosConstraint qos = QosConstraint::meanBudget(1.0);
    EXPECT_NEAR(qos.analyticValue(model, policy, lambda, mu),
                model.meanResponse(policy, lambda, mu), 1e-12);
}

TEST(Qos, AnalyticTailValueInvertsTheTail)
{
    // For w = 0 the response is exponential: the 95th percentile is
    // ln(20)/(µf - λ).
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const double lambda = 0.4 * mu;
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    const QosConstraint qos = QosConstraint::tailBudget(1.0, 95.0);
    const double expected = std::log(20.0) / (mu - lambda);
    EXPECT_NEAR(qos.analyticValue(model, policy, lambda, mu), expected,
                1e-6);
    EXPECT_EQ(qos.analyticValue(model, policy, lambda, mu) <= qos.budget(),
              expected <= 1.0);
}

TEST(Qos, ValidationRejectsBadParameters)
{
    EXPECT_THROW(QosConstraint::meanBudget(0.0), ConfigError);
    EXPECT_THROW(QosConstraint::tailBudget(1.0, 0.0), ConfigError);
    EXPECT_THROW(QosConstraint::tailBudget(1.0, 100.0), ConfigError);
    EXPECT_THROW(QosConstraint::fromBaselineMean(1.0, 1.0), ConfigError);
    EXPECT_THROW(QosConstraint::fromBaselineMean(0.5, 0.0), ConfigError);
    EXPECT_THROW(QosConstraint::fromBaselineTail(0.5, 1.0, 1.5),
                 ConfigError);
}

TEST(Qos, MetricNames)
{
    EXPECT_EQ(toString(QosMetric::MeanResponse), "E[R]");
    EXPECT_EQ(toString(QosMetric::TailResponse), "Pr(R>=d)");
}

} // namespace
} // namespace sleepscale
