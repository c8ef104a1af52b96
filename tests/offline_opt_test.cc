/**
 * @file
 * Oracle-anchored property tests for the offline-optimal solver
 * (src/analytic/offline_opt.hh, docs/OFFLINE_OPT.md).
 *
 * The FPTAS is validated three ways: against the exact Pareto-frontier
 * solver on randomized small instances (the (1 + epsilon) contract),
 * against closed-form degenerate instances computed independently here,
 * and against the simulator itself — no simulated strategy may ever
 * spend less energy than the oracle's lower bound on the same job log,
 * swept over the Table 5 workloads and the SS / poet strategies
 * through the end-to-end `reportRegret` path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "analytic/offline_opt.hh"
#include "core/policy_space.hh"
#include "experiment/runner.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

/** Small random instance generator shared by the property tests.
 * Sizes up to ~2x the xeon wake latencies and gaps up to 2 s keep the
 * instances in the regime where sleep-state choice actually matters. */
std::vector<Job>
randomJobs(std::mt19937_64 &rng, std::size_t max_jobs)
{
    std::uniform_real_distribution<double> gap(0.0, 2.0);
    std::uniform_real_distribution<double> size(0.0, 0.4);
    std::vector<Job> jobs;
    const std::size_t n = 1 + rng() % max_jobs;
    double t = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        t += gap(rng);
        jobs.push_back({t, size(rng), 0});
    }
    return jobs;
}

/** A reduced grid keeps the exact solver's frontier small enough for
 * hundreds of randomized cases. */
std::vector<double>
coarseGrid()
{
    return PolicySpace::frequencyGrid(0.4, 1.0, 0.2);
}

TEST(OfflineOptProperty, FptasBracketsExactOnRandomInstances)
{
    const PlatformModel xeon = PlatformModel::xeon();
    std::mt19937_64 rng(20140614);
    OfflineOptOptions options;
    options.epsilon = 0.05;
    options.frequencies = coarseGrid();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound(),
                                options);

    std::uniform_real_distribution<double> tail(0.0, 2.0);
    for (int trial = 0; trial < 200; ++trial) {
        const auto jobs = randomJobs(rng, 8);
        const double horizon = jobs.back().arrival + tail(rng);
        const auto instance =
            OfflineOptInstance::fromJobs(jobs, horizon);
        const OfflineOptResult exact = oracle.solveExact(instance);
        const OfflineOptResult fptas = oracle.solve(instance);

        // Certified lower bound ...
        EXPECT_LE(fptas.energy, exact.energy + 1e-6)
            << "trial " << trial;
        // ... within (1 + epsilon) of the optimum ...
        EXPECT_LE(exact.energy,
                  (1.0 + options.epsilon) * fptas.energy + 1e-6)
            << "trial " << trial;
        // ... and the achievable upper bound really is above it.
        EXPECT_GE(fptas.upperBound, exact.energy - 1e-6)
            << "trial " << trial;
        EXPECT_LE(fptas.epsilonEffective, options.epsilon + 1e-9)
            << "trial " << trial;
    }
}

TEST(OfflineOptProperty, LowerBoundTightensAsEpsilonHalves)
{
    const PlatformModel xeon = PlatformModel::xeon();
    std::mt19937_64 rng(5);
    for (int trial = 0; trial < 40; ++trial) {
        const auto jobs = randomJobs(rng, 6);
        const auto instance =
            OfflineOptInstance::fromJobs(jobs,
                                         jobs.back().arrival + 1.0);
        double previous = -std::numeric_limits<double>::infinity();
        bool chain_clean = true;
        // Halvings keep the delta-grids nested, which is what makes
        // the lower bound monotone; unrelated epsilons need not be.
        for (double epsilon : {0.2, 0.1, 0.05, 0.025}) {
            OfflineOptOptions options;
            options.epsilon = epsilon;
            options.frequencies = coarseGrid();
            const OfflineOptimal oracle(
                xeon, ServiceScaling::cpuBound(), options);
            const OfflineOptResult result = oracle.solve(instance);
            // Coarsening/merging break grid nesting; on instances
            // this small they never trigger, but guard anyway so the
            // test cannot rot into flakiness.
            if (result.coarsenings > 0 || result.mergeDebt > 0.0) {
                chain_clean = false;
                break;
            }
            EXPECT_GE(result.energy, previous - 1e-9)
                << "trial " << trial << " epsilon " << epsilon;
            previous = result.energy;
        }
        EXPECT_TRUE(chain_clean) << "trial " << trial;
    }
}

TEST(OfflineOptDegenerate, EmptyLogBillsTheHorizonAtTheIdleFloor)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const auto instance = OfflineOptInstance::fromJobs({}, 3600.0);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    const OfflineOptResult fptas = oracle.solve(instance);
    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(fptas.energy, 3600.0 * floor, 1e-6);
    EXPECT_NEAR(exact.energy, 3600.0 * floor, 1e-6);
    EXPECT_NEAR(fptas.upperBound, fptas.energy, 1e-6);
}

TEST(OfflineOptDegenerate, SingleJobMatchesDirectEnumeration)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const double arrival = 12.0;
    const double size = 0.25;
    const double horizon = 40.0;
    const auto instance = OfflineOptInstance::fromJobs(
        {{arrival, size, 0}}, horizon);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    // Leading gap (with a wake into the job), the busy period at the
    // best frequency, and the trailing gap at the idle floor.
    double best = std::numeric_limits<double>::infinity();
    for (double f : oracle.frequencies()) {
        const double active = xeon.activePower(f);
        const double service =
            size * ServiceScaling::cpuBound().factor(f);
        const double completion = arrival + service;
        const double energy = oracle.gapCost(arrival, active) +
                              service * active +
                              (horizon - completion) * floor;
        best = std::min(best, energy);
    }

    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(exact.energy, best, 1e-6);
    const OfflineOptResult fptas = oracle.solve(instance);
    EXPECT_LE(fptas.energy, exact.energy + 1e-6);
    EXPECT_LE(exact.energy, fptas.upperBound + 1e-6);
}

TEST(OfflineOptDegenerate, GaplessLogDecomposesPerJob)
{
    // All arrivals at t = 0: no idle gap ever opens before the
    // backlog drains, so the optimum decomposes into independent
    // per-job trade-offs between busy energy and displaced trailing
    // idle at the floor power.
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const std::vector<Job> jobs = {
        {0.0, 0.3, 0}, {0.0, 0.1, 0}, {0.0, 0.45, 0}};
    const double horizon = 30.0;
    const auto instance = OfflineOptInstance::fromJobs(jobs, horizon);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    double expected = horizon * floor;
    for (const Job &job : jobs) {
        double best = std::numeric_limits<double>::infinity();
        for (double f : oracle.frequencies()) {
            const double service =
                job.size *
                ServiceScaling::cpuBound().factor(f);
            best = std::min(best,
                            service * (xeon.activePower(f) - floor));
        }
        expected += best;
    }

    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(exact.energy, expected, 1e-6);
    EXPECT_TRUE(std::all_of(exact.gapStates.begin(),
                            exact.gapStates.end(),
                            [](LowPowerState s) {
                                return s == allLowPowerStates[0];
                            }));
}

TEST(OfflineOptDegenerate, RejectsMalformedInstances)
{
    EXPECT_THROW(OfflineOptInstance::fromJobs(
                     {{2.0, 0.1, 0}, {1.0, 0.1, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{1.0, -0.1, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{5.0, 0.1, 0}}, 1.0),
                 ConfigError);
    // Non-finite fields, as PreparedLog::fromJobs rejects them: a NaN
    // arrival or size, an infinite size, and an infinite horizon would
    // otherwise solve to a meaningless bound.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(OfflineOptInstance::fromJobs(
                     {{1.0, 0.1, 0}, {nan, 0.1, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{1.0, nan, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{1.0, inf, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{1.0, 0.1, 0}}, inf),
                 ConfigError);
}

/**
 * End-to-end lower-bound invariant: drive the real runtime over the
 * Table 5 workloads with each strategy and require the reported
 * regret to be non-negative — i.e. no simulated strategy ever beats
 * the oracle on the log it just served. A short 2AM-4AM slice keeps
 * the oracle solve sub-second while still spanning thousands of jobs.
 */
struct RegretCase
{
    const char *workload;
    const char *strategy;
    /** Arrival-rate thinning: the mail and google workloads pack far
     * more jobs into the slice than dns; thinning keeps every oracle
     * solve sub-second without changing what is being asserted. */
    double rate_scale;
};

class OfflineOptRegret : public ::testing::TestWithParam<RegretCase>
{
};

TEST_P(OfflineOptRegret, SimulatedEnergyNeverBeatsTheOracle)
{
    const RegretCase c = GetParam();
    ScenarioSpec spec;
    spec.label = std::string("regret ") + c.workload + " " + c.strategy;
    spec.workload = c.workload;
    spec.trace = {
        .kind = "es", .days = 1, .windowStartHour = 2, .windowEndHour = 4};
    spec.sourceRateScale = c.rate_scale;
    spec.strategy = c.strategy;
    spec.predictor = "LC";
    spec.seed = 20140614;
    spec.reportRegret = true;
    spec.optEpsilon = 0.1;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    EXPECT_GT(result.extra("offline_opt_energy"), 0.0);
    EXPECT_GE(result.extra("regret_pct"), 0.0)
        << c.workload << "/" << c.strategy;
}

INSTANTIATE_TEST_SUITE_P(
    Table5, OfflineOptRegret,
    ::testing::Values(RegretCase{"dns", "SS", 1.0},
                      RegretCase{"dns", "poet", 1.0},
                      RegretCase{"mail", "SS", 0.3},
                      RegretCase{"mail", "poet", 0.3},
                      RegretCase{"google", "SS", 0.05},
                      RegretCase{"google", "poet", 0.05}),
    [](const ::testing::TestParamInfo<RegretCase> &param_info) {
        return std::string(param_info.param.workload) + "_" +
               param_info.param.strategy;
    });

} // namespace
} // namespace sleepscale
