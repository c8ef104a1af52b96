/**
 * @file
 * Tests for the multi-core package model (paper Section 7 future work).
 *
 * The strongest check: with one core the package model must reduce
 * *exactly* to the validated single-server ServerSim — with the
 * package-sleep delay at infinity it equals the core's plan over
 * S0(i), and with delay zero it equals the C6S3 policy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "multicore/multicore_sim.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

class Multicore : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();

    std::vector<Job>
    poissonJobs(double rho, double service_mean, std::size_t n,
                std::uint64_t seed, double capacity = 1.0) const
    {
        StationarySource source(
            std::make_unique<ExponentialDist>(service_mean / (rho * capacity)),
            std::make_unique<ExponentialDist>(service_mean), seed);
        return materialize(source, n);
    }
};

// ------------------------------------------- single-core equivalences

TEST_F(Multicore, OneCoreNoPackageSleepEqualsServerSim)
{
    const auto jobs = poissonJobs(0.3, 0.194, 30000, 1);

    MulticorePolicy mc;
    mc.frequency = 0.8;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = inf;
    const MulticoreStats multi = evaluateMulticorePolicy(
        xeon, ServiceScaling::cpuBound(), 1, mc, jobs);

    const PolicyEvaluation single = evaluatePolicy(
        xeon, ServiceScaling::cpuBound(),
        Policy{0.8, SleepPlan::immediate(LowPowerState::C6S0Idle)},
        jobs);

    EXPECT_NEAR(multi.energy, single.stats.energy, 1e-6);
    EXPECT_NEAR(multi.elapsed, single.stats.elapsed(), 1e-9);
    EXPECT_NEAR(multi.response.mean(), single.meanResponse(), 1e-12);
    EXPECT_EQ(multi.completions, single.stats.completions);
}

TEST_F(Multicore, OneCoreImmediatePackageSleepEqualsC6S3)
{
    const auto jobs = poissonJobs(0.1, 0.194, 30000, 2);

    MulticorePolicy mc;
    mc.frequency = 0.5;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = 0.0;
    const MulticoreStats multi = evaluateMulticorePolicy(
        xeon, ServiceScaling::cpuBound(), 1, mc, jobs);

    const PolicyEvaluation single = evaluatePolicy(
        xeon, ServiceScaling::cpuBound(),
        Policy{0.5, SleepPlan::immediate(LowPowerState::C6S3)}, jobs);

    EXPECT_NEAR(multi.energy / single.stats.energy, 1.0, 1e-9);
    EXPECT_NEAR(multi.response.mean(), single.meanResponse(), 1e-12);
}

// ----------------------------------------------- hand-built scenarios

TEST_F(Multicore, TwoCoresServeInParallel)
{
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C0IdleS0Idle);
    mc.packageSleepDelay = inf;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);

    // Two overlapping jobs: JSQ puts them on different cores, so both
    // finish without queueing.
    sim.offerJob({1.0, 2.0});
    sim.offerJob({1.5, 2.0});
    sim.advanceTo(sim.allFreeTime());
    EXPECT_DOUBLE_EQ(sim.allFreeTime(), 3.5);
    EXPECT_DOUBLE_EQ(sim.stats().response.mean(), 2.0);
}

TEST_F(Multicore, PackageEnergyAccountsJointIdleExactly)
{
    // One job on each core (C0(i) core plan: zero wake): core0 busy
    // [1,3], core1 busy [2,4]; package active while any core is busy
    // => [1,4].
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C0IdleS0Idle);
    mc.packageSleepDelay = inf;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);
    sim.offerJob({1.0, 2.0});
    sim.offerJob({2.0, 2.0});
    sim.advanceTo(5.0);

    // Core shares at f=1: active 65 W each (130/2), C0(i) 37.5 W each
    // (75/2). Platform: 120 W during [1,4], 60.5 W during [0,1)+(4,5].
    const double cores_energy = 65.0 * 2.0     // core0 busy [1,3]
                                + 65.0 * 2.0   // core1 busy [2,4]
                                + 37.5 * 3.0   // core0 idle [0,1)+(3,5]
                                + 37.5 * 3.0;  // core1 idle [0,2)+(4,5]
    const double package_energy = 120.0 * 3.0 + 60.5 * 2.0;
    EXPECT_NEAR(sim.stats().energy, cores_energy + package_energy,
                1e-9);
}

TEST_F(Multicore, PackageS3RequiresJointIdleness)
{
    // Package delay 2 s: S3 is entered 2 s after the *last* core goes
    // idle, not after the first. C6S0(i) cores pay a 1 ms wake, which
    // shifts the departures accordingly.
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = 2.0;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);
    sim.offerJob({0.0, 1.0}); // core0 busy [0, 1.001]
    sim.offerJob({0.5, 3.0}); // core1 busy [0.5, 3.501]
    sim.advanceTo(10.0);

    // All-idle from 3.501; S3 from 5.501 to 10 = 4.499 s.
    EXPECT_NEAR(sim.stats().packageS3Time, 4.499, 1e-9);
    // S0(i): the 2 s between joint idleness and S3 entry.
    EXPECT_NEAR(sim.stats().packageIdleTime, 2.0, 1e-9);
}

TEST_F(Multicore, PackageWakePaysS3Latency)
{
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = 1.0;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);

    // Arrival at t=5 finds the package deep in S3 (all-idle since 0).
    sim.offerJob({5.0, 1.0});
    sim.advanceTo(sim.allFreeTime());
    // Wake = max(core C6 wake 1 ms, package 1 s) = 1 s.
    EXPECT_DOUBLE_EQ(sim.allFreeTime(), 7.0);
    EXPECT_EQ(sim.stats().packageWakes, 1u);

    // A second arrival only 0.5 s after the package went idle again
    // (< 1 s delay) pays no package wake.
    sim.offerJob({7.5, 1.0});
    EXPECT_EQ(sim.stats().packageWakes, 1u);
}

TEST_F(Multicore, PackageWakeNotPaidBeforeDelayElapses)
{
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = 1.0;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 1, mc);
    sim.offerJob({0.5, 1.0}); // idle 0.5 s < 1 s: only core wake (1 ms)
    EXPECT_EQ(sim.stats().packageWakes, 0u);
    EXPECT_NEAR(sim.allFreeTime(), 1.501, 1e-9);
}

// --------------------------------------------------- model properties

TEST_F(Multicore, ConsolidationBeatsIndependentServersAtLowLoad)
{
    // 4 cores sharing one platform must beat 4 single-core servers
    // (each paying its own platform) at equal total load.
    const auto jobs = poissonJobs(0.1, 0.194, 40000, 3, 4.0);

    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = 1.0;
    const MulticoreStats package = evaluateMulticorePolicy(
        xeon, ServiceScaling::cpuBound(), 4, mc, jobs);

    // Four separate servers under round-robin splitting.
    double separate_energy = 0.0;
    std::vector<std::vector<Job>> split(4);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        split[i % 4].push_back(jobs[i]);
    for (const auto &stream : split) {
        const PolicyEvaluation eval = evaluatePolicy(
            xeon, ServiceScaling::cpuBound(),
            Policy{1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)},
            stream);
        separate_energy +=
            eval.stats.avgPower() * package.elapsed;
    }
    EXPECT_LT(package.energy, separate_energy * 0.5);
}

TEST_F(Multicore, MoreCoresLowerResponseAtFixedTotalLoad)
{
    const auto jobs = poissonJobs(0.6, 0.194, 60000, 5, 4.0);
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = inf;

    const MulticoreStats one = evaluateMulticorePolicy(
        xeon, ServiceScaling::cpuBound(), 4, mc, jobs);
    const MulticoreStats two = evaluateMulticorePolicy(
        xeon, ServiceScaling::cpuBound(), 8, mc, jobs);
    EXPECT_LT(two.response.mean(), one.response.mean());
}

TEST_F(Multicore, ValidationGuards)
{
    MulticorePolicy mc;
    EXPECT_THROW(MulticoreSim(xeon, ServiceScaling::cpuBound(), 0, mc),
                 ConfigError);

    MulticorePolicy c6s3_core;
    c6s3_core.corePlan = SleepPlan::delayed(LowPowerState::C6S3, 1.0);
    EXPECT_THROW(
        MulticoreSim(xeon, ServiceScaling::cpuBound(), 2, c6s3_core),
        ConfigError);

    MulticorePolicy bad_f;
    bad_f.frequency = 0.0;
    EXPECT_THROW(MulticoreSim(xeon, ServiceScaling::cpuBound(), 2,
                              bad_f),
                 ConfigError);
    bad_f.frequency = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(MulticoreSim(xeon, ServiceScaling::cpuBound(), 2,
                              bad_f),
                 ConfigError);

    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);
    sim.advanceTo(4.0);
    EXPECT_THROW(sim.offerJob({3.0, 1.0}), ConfigError);
}

TEST_F(Multicore, PolicySwitchKeepsAccounting)
{
    MulticorePolicy mc;
    mc.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    mc.packageSleepDelay = inf;
    MulticoreSim sim(xeon, ServiceScaling::cpuBound(), 2, mc);
    sim.offerJob({0.0, 1.0});

    MulticorePolicy slower = mc;
    slower.frequency = 0.5;
    sim.setPolicy(slower, 2.0);
    sim.offerJob({3.0, 1.0}); // f = 0.5: 1 ms wake + 2 s of service
    sim.advanceTo(sim.allFreeTime());
    EXPECT_NEAR(sim.allFreeTime(), 5.001, 1e-12);
    EXPECT_EQ(sim.stats().completions, 2u);
}

} // namespace
} // namespace sleepscale
