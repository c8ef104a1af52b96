/**
 * @file
 * End-to-end integration tests reproducing the paper's headline claims in
 * miniature: SleepScale beats the conventional strategies on power while
 * staying within the QoS budget (Section 6.1), race-to-halt pays ~50%
 * extra power at low utilization (Section 4.2), and the QoS-constrained
 * optimal frequencies of Figure 5 come out of the policy manager.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analytic/mm1_sleep.hh"
#include "core/runtime.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "workload/job_source.hh"
#include "workload/utilization_trace.hh"

namespace sleepscale {
namespace {

class EndToEnd : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    WorkloadSpec dns = dnsWorkload();

    RuntimeResult
    runStrategy(const std::string &strategy, const std::vector<Job> &jobs,
                const UtilizationTrace &trace) const
    {
        RuntimeConfig base;
        base.overProvision = 0.35;
        const RuntimeConfig config = strategyConfigByName(strategy, base);
        const SleepScaleRuntime runtime(xeon, dns, config);
        LmsCusumPredictor predictor(10);
        return runtime.run(jobs, trace, predictor);
    }
};

TEST_F(EndToEnd, SleepScaleBeatsConventionalStrategiesOnPower)
{
    // The paper's Section 6.1 setting: one synthetic email-store day,
    // evaluated over the 2AM-8PM window.
    const UtilizationTrace day = synthEmailStoreTrace(1, 2014);
    const UtilizationTrace window = day.dailyWindow(2, 20);
    TraceDrivenSource source(dns, window, 77);
    const auto jobs = materialize(source);

    std::map<std::string, RuntimeResult> results;
    for (const char *strategy :
         {"SS", "SS(C3)", "DVFS", "R2H(C3)", "R2H(C6)"})
        results.emplace(strategy, runStrategy(strategy, jobs, window));

    const double ss_power = results.at("SS").avgPower();
    EXPECT_LT(ss_power, results.at("R2H(C3)").avgPower());
    EXPECT_LT(ss_power, results.at("R2H(C6)").avgPower());
    // SS may legitimately tie DVFS-only when C0(i)S0(i) is the optimal
    // state for the whole window (cf. Figure 6 at moderate load).
    EXPECT_LE(ss_power, results.at("DVFS").avgPower());
    EXPECT_LE(ss_power, results.at("SS(C3)").avgPower() * 1.02);

    // Under the causal predictor the response stays in the budget's
    // neighbourhood (exact compliance depends on how the trace's bursts
    // land, as in the paper's Figure 8/9 discussion)...
    const RuntimeResult &ss = results.at("SS");
    EXPECT_LE(ss.meanResponse(), ss.qos.budget() * 2.0);

    // ...and with perfect utilization knowledge (offline predictor,
    // 1-minute epochs) the budget itself is met.
    RuntimeConfig genie_base;
    genie_base.epochMinutes = 1;
    genie_base.overProvision = 0.35;
    const RuntimeConfig genie = strategyConfigByName("SS", genie_base);
    const SleepScaleRuntime genie_runtime(xeon, dns, genie);
    OfflinePredictor offline(window.values());
    const RuntimeResult genie_result =
        genie_runtime.run(jobs, window, offline);
    EXPECT_TRUE(genie_result.withinBudget());
}

TEST_F(EndToEnd, RaceToHaltPaysLargePowerPremiumAtLowUtilization)
{
    // Section 4.2, lesson 1: at rho = 0.1 race-to-halt can consume ~50%
    // more power than the jointly optimal policy.
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / dns.serviceMean;
    const double lambda = 0.1 * mu;

    double best = model.meanPower(raceToHalt(LowPowerState::C6S3),
                                  lambda, mu);
    for (double f = 0.12; f <= 1.0; f += 0.01) {
        for (LowPowerState state : allLowPowerStates) {
            const Policy policy{f, SleepPlan::immediate(state)};
            best = std::min(best, model.meanPower(policy, lambda, mu));
        }
    }
    const double r2h = model.meanPower(
        raceToHalt(LowPowerState::C0IdleS0Idle), lambda, mu);
    EXPECT_GT(r2h / best, 1.4);
}

TEST_F(EndToEnd, Figure5OptimalFrequenciesEmerge)
{
    // Google-like workload, C0(i)S0(i), QoS from rho_b = 0.8: the paper
    // reads off optimal f of {0.41, 0.46, 0.51, 0.56} at rho = 0.1..0.4.
    const WorkloadSpec google = googleWorkload();
    const double mu = 1.0 / google.serviceMean;
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, google.serviceMean);
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(),
        PolicySpace{{SleepPlan::immediate(LowPowerState::C0IdleS0Idle)},
                    PolicySpace::frequencyGrid(0.12, 1.0, 0.01)},
        qos);

    // Under the pure M/M/1 closed form the optima are {0.39, 0.46,
    // 0.50, 0.60}: minimizing E[P](f) = 55ρf² + 59.5ρ/f + 75f³ + 60.5
    // subject to the µE[R] = 1/(f-ρ) <= 5 cut (binding from ρ = 0.3).
    // The paper reads {0.41, 0.46, 0.51, 0.56} off its BigHouse-driven
    // simulation (inter-arrival Cv 1.2, service Cv 1.1) — same shape,
    // small offsets from the non-exponential moments.
    const std::map<double, double> expected = {
        {0.1, 0.39}, {0.2, 0.46}, {0.3, 0.50}, {0.4, 0.60}};
    for (const auto &[rho, f_model] : expected) {
        const PolicyDecision decision =
            manager.selectAnalytic(rho * mu, mu);
        EXPECT_NEAR(decision.policy.frequency, f_model, 0.02)
            << "rho=" << rho;
        // The paper's reading stays within a few hundredths.
        EXPECT_TRUE(decision.feasible);
    }
}

TEST_F(EndToEnd, LowUtilizationQosCanBeExceeded)
{
    // Figure 5 observation: at rho = 0.1 the global power optimum beats
    // the budget (normalized response ~3 < 5).
    const WorkloadSpec google = googleWorkload();
    const double mu = 1.0 / google.serviceMean;
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, google.serviceMean);
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(),
        PolicySpace{{SleepPlan::immediate(LowPowerState::C0IdleS0Idle)},
                    PolicySpace::frequencyGrid(0.12, 1.0, 0.01)},
        qos);
    const PolicyDecision decision = manager.selectAnalytic(0.1 * mu, mu);
    EXPECT_LT(decision.predictedMetric, qos.budget() * 0.8);
}

TEST_F(EndToEnd, JobSizeDrivesOptimalStateAtHighUtilization)
{
    // Section 4.2, lesson 3 (Figure 2): under high utilization DNS-like
    // jobs prefer C6S0(i) while Google-like jobs prefer C3S0(i), and
    // C6S3 is never the choice.
    const MM1SleepModel model(xeon);
    const QosConstraint loose = QosConstraint::meanBudget(1e9);

    auto best_state = [&](double service_mean) {
        const double mu = 1.0 / service_mean;
        const double lambda = 0.9 * mu;
        double best_power = 1e18;
        LowPowerState best = LowPowerState::C0IdleS0Idle;
        for (double f = 0.92; f <= 1.0; f += 0.005) {
            for (LowPowerState state : allLowPowerStates) {
                const Policy policy{f, SleepPlan::immediate(state)};
                const double p = model.meanPower(policy, lambda, mu);
                if (p < best_power) {
                    best_power = p;
                    best = state;
                }
            }
        }
        (void)loose;
        return best;
    };

    EXPECT_EQ(best_state(0.194), LowPowerState::C6S0Idle);
    EXPECT_EQ(best_state(4.2e-3), LowPowerState::C3S0Idle);
}

} // namespace
} // namespace sleepscale
