/**
 * @file
 * Tests for policy-space construction and the policy manager.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "analytic/mm1_sleep.hh"
#include "core/policy_manager.hh"
#include "core/policy_space.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

// ------------------------------------------------------------ the space

TEST(PolicySpace, FrequencyGridIncludesEndpoints)
{
    const auto grid = PolicySpace::frequencyGrid(0.3, 1.0, 0.1);
    ASSERT_GE(grid.size(), 2u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.3);
    EXPECT_DOUBLE_EQ(grid.back(), 1.0);
    for (std::size_t i = 1; i < grid.size(); ++i)
        EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(PolicySpace, StandardCrossesFiveStates)
{
    const PolicySpace space = PolicySpace::standard();
    EXPECT_EQ(space.plans.size(), 5u);
    EXPECT_EQ(space.size(),
              space.plans.size() * space.frequencies.size());
}

TEST(PolicySpace, GridValidation)
{
    EXPECT_THROW(PolicySpace::frequencyGrid(0.0, 1.0, 0.1), ConfigError);
    EXPECT_THROW(PolicySpace::frequencyGrid(0.5, 1.2, 0.1), ConfigError);
    EXPECT_THROW(PolicySpace::frequencyGrid(0.5, 1.0, 0.0), ConfigError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(PolicySpace::frequencyGrid(nan, 1.0, 0.1), ConfigError);
    EXPECT_THROW(PolicySpace::frequencyGrid(0.5, nan, 0.1), ConfigError);
    EXPECT_THROW(PolicySpace::frequencyGrid(0.5, 1.0, nan), ConfigError);
}

// ---------------------------------------------------------- the manager

class ManagerTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();

    std::vector<Job>
    poissonLog(double rho, double service_mean, std::size_t n,
               std::uint64_t seed = 42) const
    {
        StationarySource source(
            std::make_unique<ExponentialDist>(service_mean / rho),
            std::make_unique<ExponentialDist>(service_mean), seed);
        return materialize(source, n);
    }
};

TEST_F(ManagerTest, PicksFeasibleMinimumPower)
{
    // DNS-like at rho = 0.1 with a loose budget: the manager must find a
    // policy well below race-to-halt power.
    const auto log = poissonLog(0.1, 0.194, 20000);
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, 0.194);
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(),
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.15, 1.0,
                                                          0.05)),
        qos);
    const PolicyDecision decision = manager.selectFromLog(log);

    EXPECT_TRUE(decision.feasible);
    EXPECT_LE(decision.predictedMetric, qos.budget());
    EXPECT_GT(decision.evaluated, 0u);

    // Compare against race-to-halt into C6S0(i).
    const PolicyEvaluation r2h =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(),
                       raceToHalt(LowPowerState::C6S0Idle), log);
    EXPECT_LT(decision.predictedPower, r2h.avgPower());
}

TEST_F(ManagerTest, RestrictedSpaceOnlyReturnsItsPlan)
{
    const auto log = poissonLog(0.2, 0.194, 5000);
    // The space the "SS(C3)" strategy searches.
    PolicySpace space = PolicySpace::standard();
    space.plans = {SleepPlan::immediate(LowPowerState::C3S0Idle)};
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(), space,
                                QosConstraint::fromBaselineMean(0.8, 0.194));
    const PolicyDecision decision = manager.selectFromLog(log);
    EXPECT_EQ(decision.policy.plan.deepest(), LowPowerState::C3S0Idle);
}

TEST_F(ManagerTest, InfeasibleBudgetFallsBackToFastest)
{
    // An impossible budget (far below one service time): no candidate is
    // feasible, the manager returns the lowest-latency one.
    const auto log = poissonLog(0.3, 0.194, 5000);
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(),
                                PolicySpace::standard(),
                                QosConstraint::meanBudget(1e-6));
    const PolicyDecision decision = manager.selectFromLog(log);
    EXPECT_FALSE(decision.feasible);
    // Best effort should run at or near full speed.
    EXPECT_GT(decision.policy.frequency, 0.9);
}

TEST_F(ManagerTest, UnstableFrequenciesSkipped)
{
    // rho = 0.6: frequencies at or below 0.6 are unstable and must not
    // be selected even though the grid contains them.
    const auto log = poissonLog(0.6, 0.194, 20000);
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(),
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.2, 1.0,
                                                          0.05)),
        QosConstraint::fromBaselineMean(0.8, 0.194));
    const PolicyDecision decision = manager.selectFromLog(log);
    EXPECT_GT(decision.policy.frequency, 0.6);
}

TEST_F(ManagerTest, TighterQosRaisesFrequency)
{
    const double mu = 1.0 / 0.194;
    const double lambda = 0.4 * mu;
    const PolicySpace space = PolicySpace::allStates(
        PolicySpace::frequencyGrid(0.2, 1.0, 0.01));

    const PolicyManager loose(xeon, ServiceScaling::cpuBound(), space,
                              QosConstraint::fromBaselineMean(0.8,
                                                              0.194));
    const PolicyManager tight(xeon, ServiceScaling::cpuBound(), space,
                              QosConstraint::fromBaselineMean(0.6,
                                                              0.194));
    const PolicyDecision d_loose = loose.selectAnalytic(lambda, mu);
    const PolicyDecision d_tight = tight.selectAnalytic(lambda, mu);
    EXPECT_GE(d_tight.policy.frequency, d_loose.policy.frequency);
}

TEST_F(ManagerTest, AnalyticAndSimulatedSelectionAgree)
{
    // For a Poisson/exponential workload the log-driven and closed-form
    // selections must agree on the state and closely on frequency
    // (paper observation 3 in Section 5.1.2).
    const double rho = 0.3;
    const double service_mean = 0.194;
    const double mu = 1.0 / service_mean;
    const auto log = poissonLog(rho, service_mean, 60000, 7);

    const PolicySpace space = PolicySpace::allStates(
        PolicySpace::frequencyGrid(0.2, 1.0, 0.02));
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, service_mean);
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(), space,
                                qos);

    const PolicyDecision sim = manager.selectFromLog(log);
    const PolicyDecision ana = manager.selectAnalytic(rho * mu, mu);

    EXPECT_EQ(sim.policy.plan.deepest(), ana.policy.plan.deepest());
    EXPECT_NEAR(sim.policy.frequency, ana.policy.frequency, 0.08);
    EXPECT_NEAR(sim.predictedPower, ana.predictedPower,
                0.05 * ana.predictedPower);
}

TEST_F(ManagerTest, AnalyticSelectionMatchesCandidateScan)
{
    // The closed-form selection, characterized candidate by candidate
    // here: the cheapest feasible one, else the lowest metric, both by
    // strict < in plan-major grid order.
    const std::vector<PolicySpace> spaces = {
        PolicySpace::standard(),
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.12, 1.0,
                                                          0.01))};
    for (const WorkloadSpec &spec :
         {dnsWorkload(), mailWorkload(), googleWorkload()}) {
        const MM1SleepModel model(xeon, spec.scaling);
        const double mu = 1.0 / spec.serviceMean;
        for (const QosMetric metric :
             {QosMetric::MeanResponse, QosMetric::TailResponse}) {
            const QosConstraint qos =
                QosConstraint::fromBaseline(metric, 0.8, spec.serviceMean);
            for (const PolicySpace &space : spaces) {
                const PolicyManager manager(xeon, spec.scaling, space, qos);
                for (const double rho : {0.05, 0.3, 0.6, 0.9}) {
                    const double lambda = rho * mu;
                    const double f_floor =
                        manager.engine().minStableFrequency(rho);
                    PolicyDecision best;
                    PolicyDecision fallback;
                    double fallback_metric =
                        std::numeric_limits<double>::infinity();
                    std::uint64_t evaluated = 0;
                    for (const SleepPlan &plan : space.plans) {
                        for (const double f : space.frequencies) {
                            if (f < f_floor)
                                continue;
                            const Policy candidate{f, plan};
                            const double power =
                                model.meanPower(candidate, lambda, mu);
                            const double value = qos.analyticValue(
                                model, candidate, lambda, mu);
                            ++evaluated;
                            if (value <= qos.budget() &&
                                (!best.feasible ||
                                 power < best.predictedPower))
                                best = {candidate, true, power, value};
                            if (value < fallback_metric) {
                                fallback_metric = value;
                                fallback = {candidate, false, power, value};
                            }
                        }
                    }
                    const PolicyDecision &expected =
                        best.feasible ? best : fallback;

                    const PolicyDecision decision =
                        manager.selectAnalytic(lambda, mu);
                    const std::string where =
                        spec.name + " " + toString(metric) + " |F|=" +
                        std::to_string(space.frequencies.size()) +
                        " rho=" + std::to_string(rho);
                    EXPECT_EQ(decision.policy.frequency,
                              expected.policy.frequency)
                        << where;
                    EXPECT_EQ(decision.policy.plan.toString(),
                              expected.policy.plan.toString())
                        << where;
                    EXPECT_EQ(decision.feasible, expected.feasible)
                        << where;
                    EXPECT_EQ(decision.predictedPower,
                              expected.predictedPower)
                        << where;
                    EXPECT_EQ(decision.predictedMetric,
                              expected.predictedMetric)
                        << where;
                    EXPECT_EQ(decision.evaluated, evaluated) << where;
                }
            }
        }
    }
}

TEST_F(ManagerTest, AnalyticRejectsBadRates)
{
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(),
                                PolicySpace::standard(),
                                QosConstraint::meanBudget(1.0));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(manager.selectAnalytic(0.0, 5.0), ConfigError);
    EXPECT_THROW(manager.selectAnalytic(1.0, -5.0), ConfigError);
    // NaN compares false against any bound: a `<= 0` check lets it
    // through to a pick from candidates whose every value is NaN.
    EXPECT_THROW(manager.selectAnalytic(nan, 5.0), ConfigError);
    EXPECT_THROW(manager.selectAnalytic(1.0, nan), ConfigError);
}

TEST_F(ManagerTest, ValidationRejectsBadSpace)
{
    PolicySpace empty;
    EXPECT_THROW(PolicyManager(xeon, ServiceScaling::cpuBound(), empty,
                               QosConstraint::meanBudget(1.0)),
                 ConfigError);

    PolicySpace bad_freq = PolicySpace::standard();
    bad_freq.frequencies.push_back(1.5);
    EXPECT_THROW(PolicyManager(xeon, ServiceScaling::cpuBound(), bad_freq,
                               QosConstraint::meanBudget(1.0)),
                 ConfigError);
}

TEST_F(ManagerTest, MemoryBoundPrefersLowestFrequency)
{
    // Lesson 6: for memory-bound work the optimal speed is the lowest.
    const double mu = 1.0 / 0.194;
    const PolicyManager manager(
        xeon, ServiceScaling::memoryBound(),
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.2, 1.0,
                                                          0.05)),
        QosConstraint::fromBaselineMean(0.8, 0.194));
    const PolicyDecision decision =
        manager.selectAnalytic(0.1 * mu, mu);
    EXPECT_NEAR(decision.policy.frequency, 0.2, 1e-9);
}

} // namespace
} // namespace sleepscale
