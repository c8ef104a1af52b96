/**
 * @file
 * Tests for the zero-communication "distributed" farm control mode
 * (src/farm/rate_scaler.hh, docs/FARM_SCALE.md): the Robbins–Monro
 * load estimator, slowest-feasible frequency selection, configuration
 * validation, and the end-to-end farm plumbing (grid-pinned
 * frequencies, pinned sleep plan, heterogeneous platforms). Its
 * degraded-mode fallback under faults is applied by the farm loop and
 * tested there (tests/farm_fault_test.cc, DegradedMode).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "farm/farm_runtime.hh"
#include "farm/rate_scaler.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

const std::vector<double> kGrid = {0.25, 0.5, 0.75, 1.0};

Policy
initialPolicy()
{
    return Policy{1.0, SleepPlan::immediate(LowPowerState::C6S3)};
}

DistributedRateScaler
makeScaler(double target, ServiceScaling scaling = ServiceScaling::cpuBound())
{
    return DistributedRateScaler(kGrid, scaling, initialPolicy(), target);
}

EpochObservation
observing(double utilization)
{
    EpochObservation observation;
    observation.measuredUtilization = utilization;
    observation.hasMeasurement = true;
    return observation;
}

// The first observation lands with gain 1/1 = 1: the estimate is
// exactly the observed load, like a running mean of one sample.
TEST(DistributedRateScaler, FirstObservationSetsEstimateExactly)
{
    DistributedRateScaler scaler = makeScaler(0.8);
    scaler.decide(observing(0.4), {});
    EXPECT_DOUBLE_EQ(scaler.estimatedLoad(), 0.4);
    EXPECT_EQ(scaler.observations(), 1u);
}

// The gain floor keeps the estimator adaptive forever: after a level
// shift the estimate converges geometrically to the new load instead
// of freezing like a pure running mean would.
TEST(DistributedRateScaler, TracksLoadDriftThroughGainFloor)
{
    DistributedRateScaler scaler = makeScaler(0.8);
    for (int k = 0; k < 100; ++k)
        scaler.decide(observing(0.2), {});
    EXPECT_NEAR(scaler.estimatedLoad(), 0.2, 1e-9);
    for (int k = 0; k < 200; ++k)
        scaler.decide(observing(0.8), {});
    EXPECT_NEAR(scaler.estimatedLoad(), 0.8, 1e-3);
}

// CPU-bound scaling (service time 1/f): load 0.4 against target 0.8
// makes f = 0.5 the slowest feasible frequency, with the predicted
// metric saturating the target exactly.
TEST(DistributedRateScaler, PicksSlowestFrequencyMeetingTarget)
{
    DistributedRateScaler scaler = makeScaler(0.8);
    const PolicyDecision decision = scaler.decide(observing(0.4), {});
    EXPECT_TRUE(decision.feasible);
    EXPECT_DOUBLE_EQ(decision.policy.frequency, 0.5);
    EXPECT_DOUBLE_EQ(decision.predictedMetric, 1.0);
    // The sleep plan rides along from the initial policy untouched.
    EXPECT_EQ(decision.policy.plan.toString(),
              initialPolicy().plan.toString());
}

// Memory-bound work gains nothing from frequency, so the rule always
// lands on the slowest grid point whenever the load fits at all.
TEST(DistributedRateScaler, MemoryBoundLoadRunsSlowestFrequency)
{
    DistributedRateScaler scaler =
        makeScaler(0.8, ServiceScaling::memoryBound());
    const PolicyDecision decision = scaler.decide(observing(0.7), {});
    EXPECT_TRUE(decision.feasible);
    EXPECT_DOUBLE_EQ(decision.policy.frequency, 0.25);
}

// When even full speed cannot keep the estimate under the target the
// decision runs flat out and reports itself infeasible.
TEST(DistributedRateScaler, SaturatedLoadIsInfeasibleAtFullSpeed)
{
    DistributedRateScaler scaler = makeScaler(0.5);
    const PolicyDecision decision = scaler.decide(observing(0.9), {});
    EXPECT_FALSE(decision.feasible);
    EXPECT_DOUBLE_EQ(decision.policy.frequency, 1.0);
}

TEST(DistributedRateScaler, ResetClearsEstimatorState)
{
    DistributedRateScaler scaler = makeScaler(0.8);
    scaler.decide(observing(0.6), {});
    scaler.reset();
    EXPECT_DOUBLE_EQ(scaler.estimatedLoad(), 0.0);
    EXPECT_EQ(scaler.observations(), 0u);
}

TEST(DistributedRateScaler, NeverConsumesAJobLog)
{
    DistributedRateScaler scaler = makeScaler(0.8);
    EXPECT_FALSE(scaler.needsLog());
}

TEST(DistributedRateScaler, RejectsBadConfiguration)
{
    EXPECT_THROW(DistributedRateScaler({}, ServiceScaling::cpuBound(),
                                       initialPolicy(), 0.8),
                 ConfigError);
    EXPECT_THROW(DistributedRateScaler({1.5}, ServiceScaling::cpuBound(),
                                       initialPolicy(), 0.8),
                 ConfigError);
    EXPECT_THROW(
        DistributedRateScaler({std::numeric_limits<double>::quiet_NaN()},
                              ServiceScaling::cpuBound(), initialPolicy(),
                              0.8),
        ConfigError);
    EXPECT_THROW(DistributedRateScaler(kGrid, ServiceScaling::cpuBound(),
                                       initialPolicy(), 0.0),
                 ConfigError);
}

FarmRuntimeConfig
distributedConfig(std::size_t size)
{
    FarmRuntimeConfig config;
    config.farmSize = size;
    config.dispatcher = "random";
    config.control = "distributed";
    config.perServer.epochMinutes = 5;
    // Keep decided frequencies on the grid: the over-provision boost
    // would otherwise lift them off it after within-budget epochs.
    config.perServer.overProvision = 0.0;
    return config;
}

FarmRuntimeResult
runFarm(const PlatformModel &platform, const WorkloadSpec &workload,
        const FarmRuntimeConfig &config, const std::vector<Job> &jobs,
        const UtilizationTrace &trace)
{
    const FarmRuntime runtime(platform, workload, config);
    OfflinePredictor predictor(trace.values());
    return runtime.run(jobs, trace, predictor);
}

// End to end: the distributed farm decides per server, every
// decided frequency is a member of the candidate grid, and the sleep
// plan never moves off the initial policy's (rate scaling only moves
// frequency).
TEST(DistributedFarm, DecidesOnGridWithPinnedSleepPlan)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(30, 0.25));
    TraceDrivenSource source(dns, trace, 91, 4);
    const auto jobs = materialize(source);

    const FarmRuntimeConfig config = distributedConfig(4);
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    EXPECT_GT(result.total.completions, 0u);
    ASSERT_EQ(result.servers.size(), 4u);
    const std::string pinned_plan =
        config.perServer.initialPolicy.plan.toString();
    const auto &grid = config.perServer.space.frequencies;
    std::size_t decided_epochs = 0;
    for (const FarmServerReport &server : result.servers) {
        ASSERT_FALSE(server.epochs.empty());
        for (const EpochReport &epoch : server.epochs) {
            if (!epoch.decided)
                continue;
            ++decided_epochs;
            EXPECT_NE(std::find(grid.begin(), grid.end(),
                                epoch.policy.frequency),
                      grid.end())
                << "server " << server.server << " epoch "
                << epoch.index << " frequency "
                << epoch.policy.frequency << " is off-grid";
            EXPECT_EQ(epoch.policy.plan.toString(), pinned_plan)
                << "server " << server.server << " epoch "
                << epoch.index;
        }
    }
    EXPECT_GT(decided_epochs, 0u);
}

// A busier server must not end up at a lower frequency than a mostly
// idle one: the packing dispatcher concentrates load on low indices,
// so server 0's final decided frequency bounds the farm from above.
TEST(DistributedFarm, BusierServersRunAtLeastAsFast)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(30, 0.3));
    TraceDrivenSource source(dns, trace, 7, 4);
    const auto jobs = materialize(source);

    FarmRuntimeConfig config = distributedConfig(4);
    config.dispatcher = "packing";
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    ASSERT_EQ(result.servers.size(), 4u);
    auto lastDecided = [](const FarmServerReport &server) {
        double frequency = 0.0;
        for (const EpochReport &epoch : server.epochs)
            if (epoch.decided)
                frequency = epoch.policy.frequency;
        return frequency;
    };
    const double head = lastDecided(result.servers[0]);
    const double tail = lastDecided(result.servers[3]);
    ASSERT_GT(head, 0.0);
    ASSERT_GT(tail, 0.0);
    EXPECT_GE(head, tail);
    EXPECT_GT(result.servers[0].total.completions,
              result.servers[3].total.completions);
}

// Heterogeneous platform mixes are legal under distributed control —
// the rule is local, so big and little servers each scale their own
// rate (only farm-wide control requires a homogeneous farm).
TEST(DistributedFarm, HeterogeneousPlatformsAreAccepted)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.25));
    TraceDrivenSource source(dns, trace, 17, 4);
    const auto jobs = materialize(source);

    FarmRuntimeConfig config = distributedConfig(4);
    config.platforms = {"xeon", "xeon", "atom", "atom"};
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    ASSERT_EQ(result.servers.size(), 4u);
    EXPECT_EQ(result.servers[0].platform, PlatformModel::xeon().name());
    EXPECT_EQ(result.servers[3].platform, PlatformModel::atom().name());
    EXPECT_GT(result.total.completions, 0u);
}

} // namespace
} // namespace sleepscale
