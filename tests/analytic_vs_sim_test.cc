/**
 * @file
 * Property-based cross-validation: the queueing simulator against the
 * Appendix closed forms (the paper's Section 4.3 claim that they match).
 *
 * Each parameterized case simulates a large Poisson/exponential job
 * stream under one (ρ, f, state) setting and requires the simulated E[P],
 * E[R], busy fraction and (single-stage) Pr(R >= d) to agree with the
 * closed forms within Monte-Carlo tolerance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analytic/mm1_sleep.hh"
#include "analytic/offline_opt.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/rng.hh"
#include "util/sample_stats.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

struct CrossCase
{
    double rho;
    double frequency;
    LowPowerState state;
    double service_mean;
};

std::string
caseName(const ::testing::TestParamInfo<CrossCase> &info)
{
    const CrossCase &c = info.param;
    std::string name = "rho" + std::to_string(int(c.rho * 100)) + "_f" +
                       std::to_string(int(c.frequency * 100)) + "_s" +
                       std::to_string(depthIndex(c.state)) + "_m" +
                       std::to_string(int(c.service_mean * 1000));
    return name;
}

class AnalyticVsSim : public ::testing::TestWithParam<CrossCase>
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    MM1SleepModel model{xeon};
    static constexpr std::size_t jobCount = 300000;
};

TEST_P(AnalyticVsSim, PowerResponseAndTailAgree)
{
    const CrossCase c = GetParam();
    const double mu = 1.0 / c.service_mean;
    const double lambda = c.rho * mu;
    const Policy policy{c.frequency, SleepPlan::immediate(c.state)};

    StationarySource source(
        std::make_unique<ExponentialDist>(1.0 / lambda),
        std::make_unique<ExponentialDist>(c.service_mean),
        20140614 + depthIndex(c.state));
    const auto jobs = materialize(source, jobCount);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    // Average power: tight agreement (power is a time average, low
    // variance).
    const double power_pred = model.meanPower(policy, lambda, mu);
    EXPECT_NEAR(eval.avgPower() / power_pred, 1.0, 0.02)
        << "sim " << eval.avgPower() << " W vs analytic " << power_pred;

    // Mean response: looser, heavy-tailed estimator at high rho.
    const double response_pred = model.meanResponse(policy, lambda, mu);
    EXPECT_NEAR(eval.meanResponse() / response_pred, 1.0, 0.06)
        << "sim " << eval.meanResponse() << " s vs analytic "
        << response_pred;

    // Busy fraction.
    const double busy_pred = model.busyFraction(policy, lambda, mu);
    const double busy_sim = eval.stats.busyTime / eval.stats.elapsed();
    EXPECT_NEAR(busy_sim / busy_pred, 1.0, 0.02);

    // Tail at the median-ish deadline (where the estimator is stable).
    // The closed form models the setup time as exponential with mean w1
    // while the simulator wakes deterministically; the two agree while
    // w1 (µf - λ) is small (every state but C6S3, see mm1_sleep.hh).
    const MaterializedPlan plan(policy.plan, xeon, policy.frequency);
    const double mu_eff = mu * policy.frequency;
    if (plan.wakeLatency(0) * (mu_eff - lambda) < 0.05) {
        const double d = response_pred;
        const double tail_pred =
            model.tailProbability(policy, lambda, mu, d);
        const double tail_sim =
            eval.stats.responseHistogram.exceedance(d);
        EXPECT_NEAR(tail_sim, tail_pred, 0.02);
    }
}

// The tail closed form itself, validated against a bespoke Monte Carlo
// of the M/M/1 queue whose setup times are exponential with mean w1 —
// the process the two-exponential mixture describes exactly.
TEST(AnalyticTailFormula, MatchesExponentialSetupMonteCarlo)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const double lambda = 0.1 * mu;
    const double w1 = xeon.wakeLatency(LowPowerState::C6S3); // 1 s
    const Policy policy{1.0, SleepPlan::immediate(LowPowerState::C6S3)};

    Rng rng(5150);
    SampleStats responses;
    double next_free = 0.0;
    double clock = 0.0;
    for (int i = 0; i < 400000; ++i) {
        clock += rng.exponential(1.0 / lambda);
        double start = next_free;
        if (clock >= next_free)
            start = clock + rng.exponential(w1); // exponential setup
        const double depart = start + rng.exponential(1.0 / mu);
        responses.add(depart - clock);
        next_free = depart;
    }

    for (double d : {0.5, 1.0, 2.0, 4.0}) {
        EXPECT_NEAR(responses.exceedance(d),
                    model.tailProbability(policy, lambda, mu, d), 0.01)
            << "d=" << d;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyticVsSim,
    ::testing::Values(
        // DNS-like job size (194 ms), the paper's Figure 1(a) regime.
        CrossCase{0.1, 1.0, LowPowerState::C0IdleS0Idle, 0.194},
        CrossCase{0.1, 1.0, LowPowerState::C6S0Idle, 0.194},
        CrossCase{0.1, 1.0, LowPowerState::C6S3, 0.194},
        CrossCase{0.1, 0.42, LowPowerState::C6S3, 0.194},
        CrossCase{0.1, 0.5, LowPowerState::C1S0Idle, 0.194},
        // Google-like job size (4.2 ms), Figure 1(b).
        CrossCase{0.1, 1.0, LowPowerState::C3S0Idle, 4.2e-3},
        CrossCase{0.1, 0.6, LowPowerState::C6S0Idle, 4.2e-3},
        CrossCase{0.1, 0.35, LowPowerState::C0IdleS0Idle, 4.2e-3},
        // High utilization (Figure 2 regime).
        CrossCase{0.7, 1.0, LowPowerState::C6S0Idle, 0.194},
        CrossCase{0.7, 0.9, LowPowerState::C3S0Idle, 4.2e-3},
        CrossCase{0.5, 0.8, LowPowerState::C6S3, 0.194},
        // Near-saturation stability edge.
        CrossCase{0.3, 0.4, LowPowerState::C0IdleS0Idle, 0.194}),
    caseName);

// --------------------------------------------- oracle regret cross-check
//
// The analytic seam meets the offline oracle (docs/OFFLINE_OPT.md):
// the M/M/1 closed-form mean power describes what a *fixed* policy
// spends, so its energy over a log's span must dominate the offline
// optimum for that same log — the closed forms and the oracle bound
// the simulator from opposite sides. Registered alone as the fast
// `analytic_regret` ctest entry (labels integration+analytic).

TEST(AnalyticVsSimOracleRegret, ClosedFormEnergyDominatesTheOracle)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const CrossCase cases[] = {
        {0.1, 1.0, LowPowerState::C6S3, 0.194},
        {0.3, 0.6, LowPowerState::C6S0Idle, 0.194},
        {0.2, 0.8, LowPowerState::C3S0Idle, 4.2e-3},
    };
    for (const CrossCase &c : cases) {
        const double mu = 1.0 / c.service_mean;
        const double lambda = c.rho * mu;
        const Policy policy{c.frequency, SleepPlan::immediate(c.state)};

        StationarySource source(
            std::make_unique<ExponentialDist>(1.0 / lambda),
            std::make_unique<ExponentialDist>(c.service_mean),
            20140614 + depthIndex(c.state));
        const auto jobs = materialize(source, 20000);
        const PolicyEvaluation eval = evaluatePolicy(
            xeon, ServiceScaling::cpuBound(), policy, jobs);

        OfflineOptOptions options;
        options.epsilon = 0.1;
        const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound(),
                                    options);
        const OfflineOptResult opt =
            oracle.solve(OfflineOptInstance::fromJobs(
                jobs, eval.stats.elapsed()));

        // The sample energy the simulator actually spent can never
        // undercut the oracle's certified lower bound ...
        EXPECT_GE(eval.stats.energy, opt.energy - 1e-6)
            << "rho " << c.rho << " f " << c.frequency;
        // ... and the closed form tracks that sample within
        // Monte-Carlo tolerance, so it dominates the oracle too
        // (the 1% slack covers the estimator noise, nothing else).
        const double analytic_energy =
            model.meanPower(policy, lambda, mu) * eval.stats.elapsed();
        EXPECT_GE(analytic_energy, 0.99 * opt.energy)
            << "rho " << c.rho << " f " << c.frequency;
    }
}

// -------------------------------------------------- multi-stage descent

TEST(AnalyticVsSimMultiStage, DelayedDeepSleepAgrees)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 4.2e-3;
    const double lambda = 0.1 * mu;
    const Policy policy{
        0.6, SleepPlan::delayed(LowPowerState::C6S3, 30.0 / mu)};

    StationarySource source(std::make_unique<ExponentialDist>(1.0 / lambda),
                            std::make_unique<ExponentialDist>(4.2e-3), 777);
    const auto jobs = materialize(source, 400000);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    EXPECT_NEAR(eval.avgPower() / model.meanPower(policy, lambda, mu),
                1.0, 0.02);
    EXPECT_NEAR(eval.meanResponse() /
                    model.meanResponse(policy, lambda, mu),
                1.0, 0.08);
}

TEST(AnalyticVsSimMultiStage, FullThrottleBackAgrees)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const double lambda = 0.15 * mu;
    const Policy policy{
        0.8, SleepPlan::throttleBack({0.05, 0.2, 1.0, 10.0})};

    StationarySource source(std::make_unique<ExponentialDist>(1.0 / lambda),
                            std::make_unique<ExponentialDist>(0.194), 888);
    const auto jobs = materialize(source, 300000);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    EXPECT_NEAR(eval.avgPower() / model.meanPower(policy, lambda, mu),
                1.0, 0.02);
    EXPECT_NEAR(eval.meanResponse() /
                    model.meanResponse(policy, lambda, mu),
                1.0, 0.06);
}

// ----------------------------------------------------- M/G/1 extension

TEST(AnalyticVsSimMG1, GammaServiceMeanResponseAgrees)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double service_mean = 0.092;
    const double service_cv = 0.5;
    const double mu = 1.0 / service_mean;
    const double lambda = 0.4 * mu;
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C6S0Idle)};

    StationarySource source(
        std::make_unique<ExponentialDist>(1.0 / lambda),
        std::make_unique<GammaDist>(service_mean, service_cv), 999);
    const auto jobs = materialize(source, 300000);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    EXPECT_NEAR(eval.meanResponse() /
                    model.meanResponseMG1(policy, lambda, mu, service_cv),
                1.0, 0.05);
    // E[P] depends on service only through the mean.
    EXPECT_NEAR(eval.avgPower() / model.meanPower(policy, lambda, mu),
                1.0, 0.02);
}

TEST(AnalyticVsSimMG1, HyperExponentialServiceMeanResponseAgrees)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double service_mean = 0.092;
    const double service_cv = 3.6; // the Mail workload's tail weight
    const double mu = 1.0 / service_mean;
    const double lambda = 0.3 * mu;
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C3S0Idle)};

    StationarySource source(
        std::make_unique<ExponentialDist>(1.0 / lambda),
        std::make_unique<HyperExponentialDist>(service_mean, service_cv), 1001);
    const auto jobs = materialize(source, 2000000);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    EXPECT_NEAR(eval.meanResponse() /
                    model.meanResponseMG1(policy, lambda, mu, service_cv),
                1.0, 0.08);
    EXPECT_NEAR(eval.avgPower() / model.meanPower(policy, lambda, mu),
                1.0, 0.02);
}

} // namespace
} // namespace sleepscale
