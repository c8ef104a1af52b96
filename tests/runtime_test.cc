/**
 * @file
 * Tests for the epoch-based SleepScale runtime and the named strategies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/predictor.hh"
#include "core/runtime.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

class RuntimeTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    WorkloadSpec dns = dnsWorkload();

    UtilizationTrace
    flatTrace(std::size_t minutes, double level) const
    {
        return UtilizationTrace("flat",
                                std::vector<double>(minutes, level));
    }

    std::vector<Job>
    jobsFor(const UtilizationTrace &trace, std::uint64_t seed = 9) const
    {
        TraceDrivenSource source(dns, trace, seed);
        return materialize(source);
    }
};

TEST_F(RuntimeTest, ConservesJobs)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);

    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);

    EXPECT_EQ(result.total.arrivals, jobs.size());
    EXPECT_EQ(result.total.completions, jobs.size());
}

TEST_F(RuntimeTest, EpochCountMatchesTrace)
{
    const UtilizationTrace trace = flatTrace(30, 0.2);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.2);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_EQ(result.epochs.size(), 6u);
    for (std::size_t i = 0; i < result.epochs.size(); ++i)
        EXPECT_EQ(result.epochs[i].index, i);
}

TEST_F(RuntimeTest, EnergyAccountingIsContiguous)
{
    const UtilizationTrace trace = flatTrace(20, 0.25);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.epochMinutes = 4;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.25);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);

    // Windows tile the run: sum of epoch spans equals the total span,
    // and energies add up.
    double span = 0.0, energy = 0.0;
    for (const EpochReport &epoch : result.epochs) {
        span += epoch.stats.elapsed();
        energy += epoch.stats.energy;
    }
    EXPECT_NEAR(span, result.total.elapsed(), 1e-6);
    EXPECT_NEAR(energy, result.total.energy, 1e-6);
    EXPECT_GE(result.total.elapsed(), trace.duration());
}

TEST_F(RuntimeTest, AveragePowerWithinModelBounds)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);
    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_GT(result.avgPower(), xeon.lowPower(LowPowerState::C6S3, 1.0));
    EXPECT_LT(result.avgPower(), xeon.activePower(1.0));
}

TEST_F(RuntimeTest, FixedPolicyNeverChanges)
{
    const UtilizationTrace trace = flatTrace(20, 0.4);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.4);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    for (const EpochReport &epoch : result.epochs) {
        EXPECT_DOUBLE_EQ(epoch.policy.frequency, 1.0);
        EXPECT_EQ(epoch.policy.plan.deepest(),
                  LowPowerState::C6S0Idle);
    }
}

TEST_F(RuntimeTest, StateSelectionFractionsSumToOne)
{
    const UtilizationTrace trace = flatTrace(40, 0.2);
    const auto jobs = jobsFor(trace);
    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor(0.2);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    const auto fractions = stateSelectionFractions(result.epochs);
    double sum = 0.0;
    for (double f : fractions)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(RuntimeTest, DvfsOnlyNeverSleepsDeep)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);
    const RuntimeConfig config = strategyConfigByName("DVFS", {});
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    const auto fractions = stateSelectionFractions(result.epochs);
    EXPECT_DOUBLE_EQ(
        fractions[depthIndex(LowPowerState::C0IdleS0Idle)], 1.0);
}

TEST_F(RuntimeTest, OverProvisioningBoostsFrequency)
{
    const UtilizationTrace trace = flatTrace(40, 0.2);
    const auto jobs = jobsFor(trace);

    RuntimeConfig plain;
    plain.overProvision = 0.0;
    RuntimeConfig guarded;
    guarded.overProvision = 0.35;

    NaivePreviousPredictor p1(0.2), p2(0.2);
    const RuntimeResult without =
        SleepScaleRuntime(xeon, dns, plain).run(jobs, trace, p1);
    const RuntimeResult with =
        SleepScaleRuntime(xeon, dns, guarded).run(jobs, trace, p2);

    // Some epoch must be boosted once the budget is met...
    bool any_boost = false;
    for (const EpochReport &epoch : with.epochs)
        any_boost = any_boost || epoch.boosted;
    EXPECT_TRUE(any_boost);
    for (const EpochReport &epoch : without.epochs)
        EXPECT_FALSE(epoch.boosted);

    // ...and the guard band buys response time for power (Section 6.1).
    EXPECT_LE(with.meanResponse(), without.meanResponse() * 1.05);
    EXPECT_GE(with.avgPower(), without.avgPower() * 0.98);
}

TEST_F(RuntimeTest, QosBudgetDerivedFromRhoB)
{
    RuntimeConfig config;
    config.rhoB = 0.8;
    const SleepScaleRuntime runtime(xeon, dns, config);
    EXPECT_NEAR(runtime.qos().budget(), 0.194 / 0.2, 1e-12);

    RuntimeConfig tail;
    tail.qosMetric = QosMetric::TailResponse;
    const SleepScaleRuntime tail_runtime(xeon, dns, tail);
    EXPECT_EQ(tail_runtime.qos().metric(), QosMetric::TailResponse);
}

TEST_F(RuntimeTest, ValidationRejectsBadConfig)
{
    RuntimeConfig zero_epoch;
    zero_epoch.epochMinutes = 0;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, zero_epoch), ConfigError);

    RuntimeConfig tiny_log;
    tiny_log.evalLogCap = 1;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, tiny_log), ConfigError);

    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor;
    EXPECT_THROW(runtime.run({}, UtilizationTrace{}, predictor),
                 ConfigError);
}

TEST_F(RuntimeTest, BacklogCarriesAcrossEpochs)
{
    // One overload minute inside an otherwise quiet trace: responses of
    // jobs queued during the spike are attributed to later epochs, and
    // nothing is lost.
    std::vector<double> levels(30, 0.05);
    levels[10] = 0.9;
    levels[11] = 0.9;
    const UtilizationTrace trace("spike", levels);
    const auto jobs = jobsFor(trace, 17);

    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.05);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_EQ(result.total.completions, jobs.size());
}

TEST_F(RuntimeTest, OneServerFarmMatchesSingleServerRuntime)
{
    // The paper runtime is one server's epoch loop; a farm of one server
    // must run that loop exactly. The farm here deliberately uses
    // per-server control and JSQ, so the check covers the general
    // decision-group path, not only the configuration a single-server
    // run would pick.
    const UtilizationTrace trace =
        synthEmailStoreTrace(1, 20140614).dailyWindow(2, 5);
    RuntimeConfig base;
    base.overProvision = 0.35;
    for (const std::string workload_name : {"dns", "mail", "google"}) {
        const WorkloadSpec workload = workloadByName(workload_name);
        for (const std::string strategy :
             {"SS", "DVFS", "R2H(C6)", "poet"}) {
            const std::string label = workload_name + "/" + strategy;
            const RuntimeConfig config =
                strategyConfigByName(strategy, base);

            const SleepScaleRuntime single(xeon, workload, config);
            TraceDrivenSource single_source(workload, trace, 20140614);
            const auto single_predictor =
                makePredictor("LC", 10, trace.values());
            const RuntimeResult expected =
                single.run(single_source, trace, *single_predictor);

            FarmRuntimeConfig farm_config;
            farm_config.farmSize = 1;
            farm_config.dispatcher = "JSQ";
            farm_config.control = "per-server";
            farm_config.perServer = config;
            const FarmRuntime farm(xeon, workload, farm_config);
            TraceDrivenSource farm_source(workload, trace, 20140614);
            const auto farm_predictor =
                makePredictor("LC", 10, trace.values());
            const FarmRuntimeResult actual =
                farm.run(farm_source, trace, *farm_predictor);

            ASSERT_EQ(actual.epochs.size(), expected.epochs.size())
                << label;
            for (std::size_t e = 0; e < expected.epochs.size(); ++e) {
                const EpochReport &want = expected.epochs[e];
                const EpochReport &got = actual.epochs[e];
                EXPECT_EQ(got.policy.frequency, want.policy.frequency)
                    << label << " epoch " << e;
                EXPECT_EQ(got.policy.plan.deepest(),
                          want.policy.plan.deepest())
                    << label << " epoch " << e;
                EXPECT_EQ(got.policy.plan.size(), want.policy.plan.size())
                    << label << " epoch " << e;
                EXPECT_EQ(got.decided, want.decided)
                    << label << " epoch " << e;
                EXPECT_EQ(got.feasible, want.feasible)
                    << label << " epoch " << e;
                EXPECT_EQ(got.boosted, want.boosted)
                    << label << " epoch " << e;
            }
            // Bit-for-bit on purpose: the two must run one loop.
            EXPECT_EQ(actual.total.energy, expected.total.energy)
                << label;
        }
    }
}

// ------------------------------------------------------------ strategies

TEST(Strategies, ConfigsEncodeTheRightRestrictions)
{
    // Patched onto a default RuntimeConfig, every strategy is the
    // configuration it names, field for field: the full search, the
    // search over one immediate sleep state, race-to-halt, or the
    // default feedback controller.
    std::map<std::string, RuntimeConfig> expected;
    for (const std::string &name : strategyRegistry().names())
        expected[name] = RuntimeConfig{};
    ASSERT_EQ(expected.size(), 6u);
    expected["SS(C3)"].space.plans = {
        SleepPlan::immediate(LowPowerState::C3S0Idle)};
    expected["DVFS"].space.plans = {
        SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    expected["R2H(C3)"].fixedPolicy = raceToHalt(LowPowerState::C3S0Idle);
    expected["R2H(C6)"].fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);
    expected["poet"].controller = ControllerConfig{};
    for (const auto &[name, config] : expected)
        EXPECT_TRUE(strategyConfigByName(name, RuntimeConfig{}) == config)
            << name;

    RuntimeConfig knobs;
    knobs.overProvision = 0.35;
    const RuntimeConfig ss = strategyConfigByName("SS", knobs);
    EXPECT_EQ(ss.space.plans.size(), 5u);
    EXPECT_FALSE(ss.fixedPolicy.has_value());
    EXPECT_EQ(ss.epochMinutes, 5u);
    EXPECT_DOUBLE_EQ(ss.overProvision, 0.35);
    EXPECT_DOUBLE_EQ(ss.rhoB, 0.8);

    const RuntimeConfig ss_c3 = strategyConfigByName("SS(C3)", knobs);
    ASSERT_EQ(ss_c3.space.plans.size(), 1u);
    EXPECT_EQ(ss_c3.space.plans[0].deepest(), LowPowerState::C3S0Idle);

    const RuntimeConfig dvfs = strategyConfigByName("DVFS", knobs);
    ASSERT_EQ(dvfs.space.plans.size(), 1u);
    EXPECT_EQ(dvfs.space.plans[0].deepest(), LowPowerState::C0IdleS0Idle);

    const RuntimeConfig r2h = strategyConfigByName("R2H(C6)", knobs);
    ASSERT_TRUE(r2h.fixedPolicy.has_value());
    EXPECT_DOUBLE_EQ(r2h.fixedPolicy->frequency, 1.0);
    EXPECT_EQ(r2h.fixedPolicy->plan.deepest(), LowPowerState::C6S0Idle);
}

TEST(Strategies, PatchesKeepTheCallersKnobs)
{
    // A strategy touches only its decision rule; every knob the caller
    // set survives it.
    RuntimeConfig base;
    base.epochMinutes = 3;
    base.overProvision = 0.2;
    base.rhoB = 0.7;
    base.qosMetric = QosMetric::TailResponse;
    base.searchThreads = 2;
    base.evalLogCap = 500;
    base.recordDecisionTime = true;
    base.initialPolicy =
        Policy{0.5, SleepPlan::immediate(LowPowerState::C1S0Idle)};
    for (const std::string &name : strategyRegistry().names()) {
        const RuntimeConfig config = strategyConfigByName(name, base);
        EXPECT_EQ(config.epochMinutes, 3u) << name;
        EXPECT_EQ(config.overProvision, 0.2) << name;
        EXPECT_EQ(config.rhoB, 0.7) << name;
        EXPECT_EQ(config.qosMetric, QosMetric::TailResponse) << name;
        EXPECT_EQ(config.searchThreads, 2u) << name;
        EXPECT_EQ(config.evalLogCap, 500u) << name;
        EXPECT_TRUE(config.recordDecisionTime) << name;
        EXPECT_TRUE(config.initialPolicy == base.initialPolicy) << name;
    }

    // A caller's controller reaches "poet" as set and no other
    // strategy; a caller's fixed policy reaches none (race-to-halt pins
    // its own).
    ControllerConfig controller;
    controller.pole = 0.5;
    controller.periodEpochs = 3;
    base.controller = controller;
    base.fixedPolicy = raceToHalt(LowPowerState::C1S0Idle);
    for (const std::string &name : strategyRegistry().names()) {
        const RuntimeConfig config = strategyConfigByName(name, base);
        if (name == "poet") {
            EXPECT_TRUE(config.controller == controller);
        } else {
            EXPECT_FALSE(config.controller.has_value()) << name;
        }
        if (name.rfind("R2H", 0) == 0) {
            ASSERT_TRUE(config.fixedPolicy.has_value()) << name;
            EXPECT_EQ(config.fixedPolicy->plan.deepest(),
                      name == "R2H(C3)" ? LowPowerState::C3S0Idle
                                        : LowPowerState::C6S0Idle);
        } else {
            EXPECT_FALSE(config.fixedPolicy.has_value()) << name;
        }
    }
}

} // namespace
} // namespace sleepscale
