/**
 * @file
 * Tests for sleep-plan construction and materialization.
 */

#include <gtest/gtest.h>

#include <limits>

#include "power/platform_model.hh"
#include "sim/policy.hh"
#include "sim/sleep_plan.hh"
#include "util/error.hh"

namespace sleepscale {
namespace {

TEST(SleepPlan, ImmediateSingleState)
{
    const SleepPlan plan = SleepPlan::immediate(LowPowerState::C6S3);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.stages()[0].state, LowPowerState::C6S3);
    EXPECT_DOUBLE_EQ(plan.stages()[0].enterAfter, 0.0);
    EXPECT_EQ(plan.deepest(), LowPowerState::C6S3);
}

TEST(SleepPlan, DelayedDeepState)
{
    const SleepPlan plan = SleepPlan::delayed(LowPowerState::C6S3, 0.126);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.stages()[0].state, LowPowerState::C0IdleS0Idle);
    EXPECT_DOUBLE_EQ(plan.stages()[1].enterAfter, 0.126);
    EXPECT_EQ(plan.deepest(), LowPowerState::C6S3);
}

TEST(SleepPlan, DelayedValidation)
{
    EXPECT_THROW(SleepPlan::delayed(LowPowerState::C6S3, 0.0),
                 ConfigError);
    EXPECT_THROW(SleepPlan::delayed(LowPowerState::C0IdleS0Idle, 1.0),
                 ConfigError);
    // NaN compares false against every bound, so a plain `delay <= 0`
    // check lets it through.
    EXPECT_THROW(SleepPlan::delayed(LowPowerState::C6S3,
                                    std::numeric_limits<double>::quiet_NaN()),
                 ConfigError);
}

TEST(SleepPlan, ThrottleBackBuildsFullDescent)
{
    const SleepPlan plan =
        SleepPlan::throttleBack({0.001, 0.01, 0.1, 1.0});
    ASSERT_EQ(plan.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(plan.stages()[i].state, allLowPowerStates[i]);
    EXPECT_THROW(SleepPlan::throttleBack({0.1, 0.2}), ConfigError);
}

TEST(SleepPlan, RejectsNonZeroFirstDelay)
{
    EXPECT_THROW(SleepPlan({{LowPowerState::C6S3, 1.0}}), ConfigError);
}

TEST(SleepPlan, RejectsNonIncreasingDelays)
{
    EXPECT_THROW(SleepPlan({{LowPowerState::C0IdleS0Idle, 0.0},
                            {LowPowerState::C3S0Idle, 0.5},
                            {LowPowerState::C6S3, 0.5}}),
                 ConfigError);
    EXPECT_THROW(SleepPlan({{LowPowerState::C0IdleS0Idle, 0.0},
                            {LowPowerState::C3S0Idle,
                             std::numeric_limits<double>::quiet_NaN()}}),
                 ConfigError);
}

TEST(SleepPlan, RejectsNonDeepeningStates)
{
    EXPECT_THROW(SleepPlan({{LowPowerState::C6S0Idle, 0.0},
                            {LowPowerState::C3S0Idle, 1.0}}),
                 ConfigError);
}

TEST(SleepPlan, RejectsEmpty)
{
    EXPECT_THROW(SleepPlan({}), ConfigError);
}

TEST(SleepPlan, ToStringShowsDescent)
{
    const SleepPlan plan = SleepPlan::delayed(LowPowerState::C6S3, 2.0);
    EXPECT_EQ(plan.toString(), "C0(i)S0(i)->C6S3@2");
}

// --------------------------------------------------------- materialized

TEST(MaterializedPlan, PowersTrackFrequency)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const SleepPlan plan =
        SleepPlan::delayed(LowPowerState::C6S3, 1.0);

    const MaterializedPlan at_full(plan, xeon, 1.0);
    EXPECT_DOUBLE_EQ(at_full.power(0), 135.5); // C0(i)S0(i) at f=1
    EXPECT_DOUBLE_EQ(at_full.power(1), 28.1);  // C6S3

    const MaterializedPlan at_half(plan, xeon, 0.5);
    EXPECT_DOUBLE_EQ(at_half.power(0), 75.0 / 8.0 + 60.5);
    EXPECT_DOUBLE_EQ(at_half.power(1), 28.1); // frequency independent
}

TEST(MaterializedPlan, WakeLatenciesComeFromPlatform)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MaterializedPlan plan(
        SleepPlan::throttleBack({1e-4, 1e-3, 1e-2, 1e-1}), xeon, 1.0);
    EXPECT_DOUBLE_EQ(plan.wakeLatency(0), 0.0);
    EXPECT_DOUBLE_EQ(plan.wakeLatency(1), 10e-6);
    EXPECT_DOUBLE_EQ(plan.wakeLatency(2), 100e-6);
    EXPECT_DOUBLE_EQ(plan.wakeLatency(3), 1e-3);
    EXPECT_DOUBLE_EQ(plan.wakeLatency(4), 1.0);
}

TEST(MaterializedPlan, StageAtRespectsThresholds)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MaterializedPlan plan(
        SleepPlan::throttleBack({0.1, 0.2, 0.3, 0.4}), xeon, 1.0);
    EXPECT_EQ(plan.stageAt(0.0), 0u);
    EXPECT_EQ(plan.stageAt(0.05), 0u);
    EXPECT_EQ(plan.stageAt(0.1), 1u);
    EXPECT_EQ(plan.stageAt(0.25), 2u);
    EXPECT_EQ(plan.stageAt(0.4), 4u);
    EXPECT_EQ(plan.stageAt(100.0), 4u);
    EXPECT_THROW(plan.stageAt(-0.1), ConfigError);
}

TEST(MaterializedPlan, StageAtBinarySearchMatchesLinearScan)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MaterializedPlan plan(
        SleepPlan::throttleBack({0.1, 0.2, 0.3, 0.4}), xeon, 0.8);

    // Reference linear walk over the thresholds, the pre-upper_bound
    // implementation, probed on and around every boundary.
    auto linear = [&](double elapsed) {
        std::size_t stage = 0;
        while (stage + 1 < plan.size() &&
               elapsed >= plan.enterAfter(stage + 1))
            ++stage;
        return stage;
    };
    for (double elapsed = 0.0; elapsed <= 0.6; elapsed += 0.0125)
        EXPECT_EQ(plan.stageAt(elapsed), linear(elapsed)) << elapsed;
    for (std::size_t s = 1; s < plan.size(); ++s) {
        const double boundary = plan.enterAfter(s);
        EXPECT_EQ(plan.stageAt(boundary), linear(boundary));
        EXPECT_EQ(plan.stageAt(boundary - 1e-12),
                  linear(boundary - 1e-12));
    }
}

TEST(MaterializedPlan, IdleEnergyPrefixSums)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MaterializedPlan plan(
        SleepPlan::throttleBack({0.1, 0.2, 0.3, 0.4}), xeon, 1.0);

    EXPECT_DOUBLE_EQ(plan.energyBeforeStage(0), 0.0);
    double expected = 0.0;
    for (std::size_t s = 1; s < plan.size(); ++s) {
        expected += plan.power(s - 1) *
                    (plan.enterAfter(s) - plan.enterAfter(s - 1));
        EXPECT_DOUBLE_EQ(plan.energyBeforeStage(s), expected);
    }

    // idleEnergy integrates the piecewise-constant descent exactly.
    EXPECT_DOUBLE_EQ(plan.idleEnergy(0.0), 0.0);
    EXPECT_DOUBLE_EQ(plan.idleEnergy(0.05), plan.power(0) * 0.05);
    EXPECT_DOUBLE_EQ(plan.idleEnergy(0.15),
                     plan.power(0) * 0.1 + plan.power(1) * 0.05);
    EXPECT_DOUBLE_EQ(plan.idleEnergy(1.0),
                     plan.energyBeforeStage(4) + plan.power(4) * 0.6);
}

// --------------------------------------------------------------- policy

TEST(Policy, ToStringIsReadable)
{
    const Policy policy{0.42, SleepPlan::immediate(LowPowerState::C6S3)};
    EXPECT_EQ(policy.toString(), "f=0.42 C6S3");
}

TEST(Policy, RaceToHaltRunsFlatOut)
{
    const Policy r2h = raceToHalt(LowPowerState::C3S0Idle);
    EXPECT_DOUBLE_EQ(r2h.frequency, 1.0);
    EXPECT_EQ(r2h.plan.deepest(), LowPowerState::C3S0Idle);
    EXPECT_DOUBLE_EQ(r2h.plan.stages()[0].enterAfter, 0.0);
}

} // namespace
} // namespace sleepscale
