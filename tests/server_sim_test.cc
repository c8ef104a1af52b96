/**
 * @file
 * Hand-verified arithmetic tests for the FCFS server simulator.
 *
 * Every scenario's energy, response times, and residencies are computed
 * by hand from the paper's model and checked exactly (to float tolerance).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

class XeonSim : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();

    Policy
    immediatePolicy(LowPowerState state, double f = 1.0) const
    {
        return Policy{f, SleepPlan::immediate(state)};
    }
};

// ------------------------------------------- single job, deep sleep wake

TEST_F(XeonSim, SingleJobWakesFromDeepSleep)
{
    // Idle in C6S3 (28.1 W, wake 1 s) for 10 s, then a 2 s job arrives.
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C6S3));
    sim.offerJob({10.0, 2.0});
    sim.advanceTo(sim.nextFreeTime());
    const SimStats stats = sim.harvestWindow();

    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 13.0); // 10 + 1 wake + 2 service
    EXPECT_EQ(stats.completions, 1u);
    EXPECT_DOUBLE_EQ(stats.response.mean(), 3.0); // wake + service
    EXPECT_DOUBLE_EQ(stats.wakeTime, 1.0);
    EXPECT_EQ(stats.wakeups[depthIndex(LowPowerState::C6S3)], 1u);
    EXPECT_DOUBLE_EQ(stats.idleResidency[depthIndex(LowPowerState::C6S3)],
                     10.0);
    EXPECT_DOUBLE_EQ(stats.busyTime, 3.0);
    // Energy: 10 s * 28.1 W + 3 s * 250 W.
    EXPECT_NEAR(stats.energy, 281.0 + 750.0, 1e-9);
    EXPECT_NEAR(stats.avgPower(), 1031.0 / 13.0, 1e-9);
}

// --------------------------------------------------- FCFS queueing, DVFS

TEST_F(XeonSim, QueueedJobWaitsAndFrequencyStretchesService)
{
    // f = 0.5, CPU-bound: service time doubles.
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle, 0.5));
    sim.offerJob({1.0, 2.0}); // serves 1..5
    sim.offerJob({2.0, 1.0}); // queues, serves 5..7
    sim.advanceTo(sim.nextFreeTime());
    const SimStats stats = sim.harvestWindow();

    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 7.0);
    EXPECT_EQ(stats.completions, 2u);
    EXPECT_DOUBLE_EQ(stats.response.mean(), (4.0 + 5.0) / 2.0);
    EXPECT_DOUBLE_EQ(stats.wakeTime, 0.0); // C0(i) wakes instantly
    EXPECT_DOUBLE_EQ(stats.busyTime, 6.0);

    const double idle_power = 75.0 * 0.125 + 60.5;
    const double active_power = 130.0 * 0.125 + 120.0;
    EXPECT_NEAR(stats.energy, idle_power * 1.0 + active_power * 6.0,
                1e-9);
}

TEST_F(XeonSim, MemoryBoundServiceIgnoresFrequency)
{
    ServerSim sim(xeon, ServiceScaling::memoryBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle, 0.3));
    sim.offerJob({0.0, 2.0});
    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 2.0);
}

// ----------------------------------------------- delayed descent energy

TEST_F(XeonSim, DelayedDescentIntegratesPiecewise)
{
    // C0(i)S0(i) for 5 s, then C6S3; job arrives at t = 8.
    const Policy policy{1.0, SleepPlan::delayed(LowPowerState::C6S3, 5.0)};
    ServerSim sim(xeon, ServiceScaling::cpuBound(), policy);
    sim.offerJob({8.0, 1.0});
    sim.advanceTo(sim.nextFreeTime());
    const SimStats stats = sim.harvestWindow();

    EXPECT_DOUBLE_EQ(
        stats.idleResidency[depthIndex(LowPowerState::C0IdleS0Idle)], 5.0);
    EXPECT_DOUBLE_EQ(stats.idleResidency[depthIndex(LowPowerState::C6S3)],
                     3.0);
    // Woke from the deep stage: 1 s latency.
    EXPECT_DOUBLE_EQ(stats.response.mean(), 2.0);
    EXPECT_NEAR(stats.energy, 135.5 * 5.0 + 28.1 * 3.0 + 250.0 * 2.0,
                1e-9);
}

TEST_F(XeonSim, ArrivalBeforeDeepEntryWakesInstantly)
{
    const Policy policy{1.0, SleepPlan::delayed(LowPowerState::C6S3, 5.0)};
    ServerSim sim(xeon, ServiceScaling::cpuBound(), policy);
    sim.offerJob({3.0, 1.0}); // still in C0(i)S0(i): no wake latency
    sim.advanceTo(sim.nextFreeTime());
    const SimStats stats = sim.harvestWindow();
    EXPECT_DOUBLE_EQ(stats.response.mean(), 1.0);
    EXPECT_DOUBLE_EQ(stats.wakeTime, 0.0);
}

// --------------------------------------------------- window attribution

TEST_F(XeonSim, WindowsSplitEnergyAndAttributeResponsesAtDeparture)
{
    const Policy policy{1.0, SleepPlan::delayed(LowPowerState::C6S3, 5.0)};
    ServerSim sim(xeon, ServiceScaling::cpuBound(), policy);

    sim.advanceTo(6.0);
    const SimStats first = sim.harvestWindow();
    EXPECT_NEAR(first.energy, 135.5 * 5.0 + 28.1 * 1.0, 1e-9);
    EXPECT_EQ(first.completions, 0u);
    EXPECT_DOUBLE_EQ(first.elapsed(), 6.0);

    sim.offerJob({8.0, 1.0});
    sim.advanceTo(sim.nextFreeTime());
    const SimStats second = sim.harvestWindow();
    EXPECT_EQ(second.completions, 1u);
    EXPECT_NEAR(second.energy, 28.1 * 2.0 + 250.0 * 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(second.windowStart, 6.0);
    EXPECT_DOUBLE_EQ(second.windowEnd, 10.0);
}

TEST_F(XeonSim, BackloggedResponseLandsInDepartureWindow)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    sim.offerJob({1.0, 10.0}); // departs at 11
    sim.advanceTo(5.0);
    const SimStats first = sim.harvestWindow();
    EXPECT_EQ(first.completions, 0u);

    sim.advanceTo(11.0);
    const SimStats second = sim.harvestWindow();
    EXPECT_EQ(second.completions, 1u);
    EXPECT_DOUBLE_EQ(second.response.mean(), 10.0);
}

// ------------------------------------------------------- policy switches

TEST_F(XeonSim, SwitchWhileIdlePreservesDescentClock)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    // 4 s in C0(i)S0(i) at 135.5 W, then switch to immediate C6S3.
    sim.setPolicy(immediatePolicy(LowPowerState::C6S3), 4.0);
    sim.advanceTo(6.0);
    const SimStats stats = sim.harvestWindow();
    EXPECT_NEAR(stats.energy, 135.5 * 4.0 + 28.1 * 2.0, 1e-9);

    // An arrival now pays the C6S3 wake-up latency.
    sim.offerJob({6.0, 1.0});
    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 8.0); // 6 + 1 wake + 1 service
}

TEST_F(XeonSim, SwitchWhileBusyKeepsCommittedServiceTimes)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle, 1.0));
    sim.offerJob({1.0, 10.0}); // committed at f=1: departs 11
    sim.setPolicy(immediatePolicy(LowPowerState::C0IdleS0Idle, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 11.0);

    // A job admitted after the switch is served at the new frequency.
    sim.offerJob({3.0, 1.0});
    EXPECT_DOUBLE_EQ(sim.nextFreeTime(), 13.0); // 11 + 1*2

    sim.advanceTo(sim.nextFreeTime());
    const SimStats stats = sim.harvestWindow();
    // Busy power: 250 W over [1,2) then 136.25 W over [2,13).
    const double expected_busy = 250.0 * 1.0 + 136.25 * 11.0;
    const double expected_idle = 135.5 * 1.0; // [0,1) at f=1
    EXPECT_NEAR(stats.energy, expected_busy + expected_idle, 1e-9);
}

// ------------------------------------------------------------ guard rails

TEST_F(XeonSim, OutOfOrderArrivalsRejected)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    sim.advanceTo(5.0);
    EXPECT_THROW(sim.offerJob({4.0, 1.0}), ConfigError);
}

TEST_F(XeonSim, NegativeJobSizeRejected)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    EXPECT_THROW(sim.offerJob({1.0, -1.0}), ConfigError);
}

TEST_F(XeonSim, InvalidPolicyFrequencyRejected)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    EXPECT_THROW(
        sim.setPolicy(immediatePolicy(LowPowerState::C6S3, 0.0), 1.0),
        ConfigError);
    EXPECT_THROW(sim.setPolicy(immediatePolicy(
                                   LowPowerState::C6S3,
                                   std::numeric_limits<double>::quiet_NaN()),
                               1.0),
                 ConfigError);
}

TEST_F(XeonSim, BacklogReportsRemainingWork)
{
    ServerSim sim(xeon, ServiceScaling::cpuBound(),
                  immediatePolicy(LowPowerState::C0IdleS0Idle));
    sim.offerJob({1.0, 10.0});
    EXPECT_DOUBLE_EQ(sim.backlog(2.0), 9.0);
    EXPECT_DOUBLE_EQ(sim.backlog(20.0), 0.0);
}

// ---------------------------------------------------------- bulk sanity

TEST_F(XeonSim, BusyFractionTracksOfferedLoad)
{
    // M/M/1 at rho = 0.5, f = 1, no wake latency: busy fraction ~ 0.5.
    StationarySource source(std::make_unique<ExponentialDist>(2.0),
                            std::make_unique<ExponentialDist>(1.0), 123);
    const auto jobs = materialize(source, 100000);
    const PolicyEvaluation eval = evaluatePolicy(
        xeon, ServiceScaling::cpuBound(),
        immediatePolicy(LowPowerState::C0IdleS0Idle), jobs);
    const double busy_fraction =
        eval.stats.busyTime / eval.stats.elapsed();
    EXPECT_NEAR(busy_fraction, 0.5, 0.01);
    // And the mean response approaches 1/(mu - lambda) = 2.
    EXPECT_NEAR(eval.meanResponse(), 2.0, 0.1);
}

TEST_F(XeonSim, LoweringFrequencyRaisesResponse)
{
    StationarySource source(std::make_unique<ExponentialDist>(10.0),
                            std::make_unique<ExponentialDist>(1.0), 321);
    const auto jobs = materialize(source, 20000);

    double previous = 0.0;
    for (double f : {1.0, 0.8, 0.6, 0.4}) {
        const PolicyEvaluation eval = evaluatePolicy(
            xeon, ServiceScaling::cpuBound(),
            immediatePolicy(LowPowerState::C0IdleS0Idle, f), jobs);
        EXPECT_GT(eval.meanResponse(), previous) << "f=" << f;
        previous = eval.meanResponse();
    }
}

TEST_F(XeonSim, EvaluatePolicyRejectsEmptyJobList)
{
    EXPECT_THROW(evaluatePolicy(xeon, ServiceScaling::cpuBound(),
                                immediatePolicy(
                                    LowPowerState::C0IdleS0Idle),
                                {}),
                 ConfigError);
}

TEST_F(XeonSim, AveragePowerBoundedByModelExtremes)
{
    StationarySource source(std::make_unique<ExponentialDist>(1.0),
                            std::make_unique<ExponentialDist>(0.194), 55);
    const auto jobs = materialize(source, 50000);
    for (LowPowerState state : allLowPowerStates) {
        const PolicyEvaluation eval =
            evaluatePolicy(xeon, ServiceScaling::cpuBound(),
                           immediatePolicy(state), jobs);
        EXPECT_GT(eval.avgPower(), xeon.lowPower(LowPowerState::C6S3, 1.0));
        EXPECT_LT(eval.avgPower(), xeon.activePower(1.0));
    }
}

} // namespace
} // namespace sleepscale
