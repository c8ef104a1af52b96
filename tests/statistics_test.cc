/**
 * @file
 * Tests for the statistical-rigor layer: Student-t math, metric
 * summaries, replication determinism, paired comparison under common
 * random numbers, and the analytic coverage oracle — a ~200-point
 * (ρ, f, sleep-state) M/M/1 sweep asserting that the replication
 * layer's 95% confidence intervals cover the closed-form mm1_sleep
 * values at a rate consistent with the nominal level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/mm1_sleep.hh"
#include "experiment/replication.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "util/student_t.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

// ------------------------------------------------------------ Student-t

TEST(StudentT, CdfBasicProperties)
{
    EXPECT_DOUBLE_EQ(studentTCdf(0.0, 5), 0.5);
    // dof = 1 is Cauchy: F(1) = atan(1)/pi + 1/2 = 3/4 exactly.
    EXPECT_NEAR(studentTCdf(1.0, 1), 0.75, 1e-10);
    // Symmetry.
    for (double t : {0.3, 1.7, 4.2})
        EXPECT_NEAR(studentTCdf(-t, 7), 1.0 - studentTCdf(t, 7), 1e-12);
    // Monotone in t.
    EXPECT_LT(studentTCdf(1.0, 9), studentTCdf(2.0, 9));
}

TEST(StudentT, CriticalValuesMatchTables)
{
    // Two-sided 95% critical values (standard t tables).
    EXPECT_NEAR(studentTCriticalValue(0.95, 1), 12.7062047364, 1e-6);
    EXPECT_NEAR(studentTCriticalValue(0.95, 2), 4.30265272991, 1e-7);
    EXPECT_NEAR(studentTCriticalValue(0.95, 4), 2.77644510520, 1e-7);
    EXPECT_NEAR(studentTCriticalValue(0.95, 9), 2.26215716280, 1e-7);
    EXPECT_NEAR(studentTCriticalValue(0.95, 19), 2.09302405441, 1e-7);
    EXPECT_NEAR(studentTCriticalValue(0.95, 120), 1.97993040508, 1e-7);
    // Other levels.
    EXPECT_NEAR(studentTCriticalValue(0.99, 9), 3.24983554402, 1e-7);
    EXPECT_NEAR(studentTCriticalValue(0.90, 9), 1.83311293265, 1e-7);
    // Large dof approaches the normal 1.959964.
    EXPECT_NEAR(studentTCriticalValue(0.95, 100000), 1.95996, 1e-3);
}

TEST(StudentT, RejectsInvalidArguments)
{
    EXPECT_THROW(studentTCriticalValue(0.95, 0), ConfigError);
    EXPECT_THROW(studentTCriticalValue(0.0, 5), ConfigError);
    EXPECT_THROW(studentTCriticalValue(1.0, 5), ConfigError);
    EXPECT_THROW(studentTCdf(1.0, 0), ConfigError);
    EXPECT_THROW(incompleteBeta(0.0, 1.0, 0.5), ConfigError);
    EXPECT_THROW(incompleteBeta(1.0, 1.0, 1.5), ConfigError);
}

TEST(StudentT, IncompleteBetaKnownValues)
{
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 1.0), 1.0);
    // I_x(1, 1) = x.
    for (double x : {0.1, 0.5, 0.9})
        EXPECT_NEAR(incompleteBeta(1.0, 1.0, x), x, 1e-12);
    // I_{1/2}(a, a) = 1/2 by symmetry.
    for (double a : {0.5, 2.0, 7.5})
        EXPECT_NEAR(incompleteBeta(a, a, 0.5), 0.5, 1e-12);
}

// -------------------------------------------------------- MetricSummary

TEST(MetricSummary, KnownSmallSample)
{
    const MetricSummary summary{"m", {1.0, 2.0, 3.0, 4.0, 5.0}};
    EXPECT_DOUBLE_EQ(summary.mean(), 3.0);
    EXPECT_NEAR(summary.stddev(), std::sqrt(2.5), 1e-12);
    // t*(0.95, 4 dof) * s / sqrt(5).
    const double expected =
        2.77644510520 * std::sqrt(2.5) / std::sqrt(5.0);
    EXPECT_NEAR(summary.ciHalfWidth(), expected, 1e-9);
    EXPECT_NEAR(summary.ciLow(), 3.0 - expected, 1e-9);
    EXPECT_NEAR(summary.ciHigh(), 3.0 + expected, 1e-9);
    EXPECT_TRUE(summary.covers(3.0));
    EXPECT_TRUE(summary.covers(3.0 + expected * 0.99));
    EXPECT_FALSE(summary.covers(3.0 + expected * 1.01));
    EXPECT_TRUE(summary.excludesZero());
    EXPECT_NE(summary.toString().find("±"), std::string::npos);
}

TEST(MetricSummary, DegenerateSampleCounts)
{
    const MetricSummary empty{"e", {}};
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_DOUBLE_EQ(empty.ciHalfWidth(), 0.0);

    const MetricSummary one{"o", {7.0}};
    EXPECT_DOUBLE_EQ(one.mean(), 7.0);
    EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(one.ciHalfWidth(), 0.0);
    EXPECT_TRUE(one.covers(7.0));
    EXPECT_FALSE(one.covers(7.1));
    // One Monte-Carlo draw never claims significance: the zero-width
    // interval excludes zero numerically, but excludesZero() refuses
    // below two samples.
    EXPECT_FALSE(one.excludesZero());
    EXPECT_FALSE(empty.excludesZero());
}

// --------------------------------------------------------- replications

ScenarioSpec
shortScenario(const std::string &strategy = "SS")
{
    ScenarioSpec spec;
    spec.label = "stat " + strategy;
    spec.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 25};
    spec.strategy = strategy;
    spec.loop.perServer.overProvision = 0.35;
    spec.predictor = "NP";
    spec.seed = 42;
    return spec;
}

TEST(Replication, SeedsAreDerivedAndDistinct)
{
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 100; ++i) {
        const std::uint64_t seed = replicationSeed(42, i);
        EXPECT_EQ(seed, replicationSeed(42, i));
        EXPECT_NE(seed, 42u); // decorrelated from the base run
        seeds.insert(seed);
    }
    EXPECT_EQ(seeds.size(), 100u);
    EXPECT_NE(replicationSeed(42, 0), replicationSeed(43, 0));
}

TEST(Replication, RejectsInvalidConfiguration)
{
    ScenarioSpec spec = shortScenario();
    spec.replications = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
    EXPECT_THROW(ExperimentRunner::runReplicated(spec), ConfigError);
}

TEST(Replication, SummarizesCoreMetricsAndResidencies)
{
    ScenarioSpec spec = shortScenario();
    spec.replications = 4;
    const ReplicatedResult result = ExperimentRunner::runReplicated(spec);
    ASSERT_EQ(result.replications.size(), 4u);

    for (const char *name :
         {"mean_response_s", "p95_response_s", "p99_response_s",
          "avg_power_w", "energy_j", "qos_violation"}) {
        ASSERT_TRUE(result.hasMetric(name)) << name;
        EXPECT_EQ(result.metric(name).count(), 4u) << name;
    }
    // Per-state residencies are always present, all five states.
    double residency = 0.0;
    for (LowPowerState state : allLowPowerStates) {
        const std::string key = "residency_" + toString(state);
        ASSERT_TRUE(result.hasMetric(key)) << key;
        residency += result.metric(key).mean();
    }
    EXPECT_GT(residency, 0.0);
    EXPECT_LE(residency, 1.0 + 1e-9);
    // So are the selected-state fractions, zeros included.
    double selected = 0.0;
    for (LowPowerState state : allLowPowerStates) {
        const std::string key = "state_" + toString(state);
        ASSERT_TRUE(result.hasMetric(key)) << key;
        selected += result.metric(key).mean();
    }
    EXPECT_NEAR(selected, 1.0, 1e-9);

    // The violation rate is a mean of 0/1 outcomes.
    const MetricSummary &violation = result.metric("qos_violation");
    EXPECT_GE(violation.mean(), 0.0);
    EXPECT_LE(violation.mean(), 1.0);

    // Replication i really ran the derived seed.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(result.replications[i].spec.seed, replicationSeed(42, i));

    EXPECT_THROW(result.metric("no_such_metric"), ConfigError);
}

TEST(Replication, ParallelBitIdenticalToSequential)
{
    ScenarioSpec spec = shortScenario();
    spec.replications = 6;
    const ReplicatedResult serial = ExperimentRunner::runReplicated(spec, 1);
    const ReplicatedResult two = ExperimentRunner::runReplicated(spec, 2);
    const ReplicatedResult eight = ExperimentRunner::runReplicated(spec, 8);

    ASSERT_EQ(serial.metrics.size(), two.metrics.size());
    ASSERT_EQ(serial.metrics.size(), eight.metrics.size());
    for (std::size_t m = 0; m < serial.metrics.size(); ++m) {
        const MetricSummary &a = serial.metrics[m];
        const MetricSummary &b = two.metrics[m];
        const MetricSummary &c = eight.metrics[m];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.name, c.name);
        ASSERT_EQ(a.samples.size(), b.samples.size());
        for (std::size_t i = 0; i < a.samples.size(); ++i) {
            EXPECT_EQ(a.samples[i], b.samples[i])
                << a.name << " replication " << i;
            EXPECT_EQ(a.samples[i], c.samples[i])
                << a.name << " replication " << i;
        }
    }
}

TEST(ExperimentRunner, RunReplicatedMatchesPerScenarioRuns)
{
    // The flattened (scenario × replication) pool reduction must equal
    // replicating each scenario on its own, whatever the width.
    ScenarioSpec base = shortScenario();
    base.replications = 3;

    ExperimentRunner runner(2);
    runner.addGrid(base, {sweep("strategy", &ScenarioSpec::strategy,
                                {"SS", "R2H(C6)"})});
    const auto replicated = runner.runReplicated();
    ASSERT_EQ(replicated.size(), 2u);

    for (std::size_t s = 0; s < replicated.size(); ++s) {
        const ReplicatedResult direct =
            ExperimentRunner::runReplicated(runner.scenarios()[s]);
        ASSERT_EQ(replicated[s].metrics.size(), direct.metrics.size());
        for (std::size_t m = 0; m < direct.metrics.size(); ++m) {
            ASSERT_EQ(replicated[s].metrics[m].samples,
                      direct.metrics[m].samples)
                << direct.metrics[m].name;
        }
    }

    // Replicated CSV: one header plus one row per scenario, with
    // mean/sd/ci triples per metric.
    const std::string csv = replicatedToCsvString(replicated);
    EXPECT_NE(csv.find("avg_power_w_mean"), std::string::npos);
    EXPECT_NE(csv.find("avg_power_w_sd"), std::string::npos);
    EXPECT_NE(csv.find("avg_power_w_ci95"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              replicated.size() + 1);

    // And the replication table renders with ± columns.
    std::ostringstream table;
    replicationTable(replicated).print(table);
    EXPECT_NE(table.str().find("±"), std::string::npos);
}

// --------------------------------------- paired common-random-numbers

TEST(PairedComparison, SharesSeedsAndCancelsStreamNoise)
{
    ScenarioSpec ss = shortScenario("SS");
    ss.replications = 5;
    ScenarioSpec r2h = shortScenario("R2H(C6)");
    r2h.seed = 777;       // deliberately different: CRN must override it
    r2h.replications = 2; // and so must the pairing: both arms run 5

    const PairedComparison comparison = comparePaired(ss, r2h);
    ASSERT_EQ(comparison.b.replications.size(), 5u);

    // Both sides replicated under ss.seed's derived stream.
    for (std::size_t i = 0; i < 5; ++i) {
        const std::uint64_t seed = replicationSeed(ss.seed, i);
        EXPECT_EQ(comparison.a.replications[i].spec.seed, seed);
        EXPECT_EQ(comparison.b.replications[i].spec.seed, seed);
        // Identical arrival streams: same job count offered.
        EXPECT_EQ(comparison.a.replications[i].jobs,
                  comparison.b.replications[i].jobs);
    }

    // Deltas pair replication-by-replication.
    const MetricSummary &delta = comparison.delta("avg_power_w");
    ASSERT_EQ(delta.count(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(
            delta.samples[i],
            comparison.a.metric("avg_power_w").samples[i] -
                comparison.b.metric("avg_power_w").samples[i]);
    }
    EXPECT_TRUE(comparison.a.hasMetric("energy_j"));
    EXPECT_NO_THROW(comparison.delta("energy_savings_pct"));
    EXPECT_THROW(comparison.delta("nope"), ConfigError);

    std::ostringstream out;
    pairedTable(comparison).print(out);
    EXPECT_NE(out.str().find("significant?"), std::string::npos);
}

TEST(PairedComparison, Fig9PolicyPairIsSignificantAtN20)
{
    // The acceptance pair: SleepScale against SleepScale restricted
    // to C3 — two of Figure 9's strategies — at N = 20 replications
    // on a lightly loaded flat trace. Constraining the sleep space to
    // C3 costs real power (the free search settles elsewhere), so the
    // paired 95% CI on the power delta must exclude zero AND the two
    // strategies' own CIs must not overlap: the ordering is
    // statistically qualified, not anecdotal.
    auto scenario = [](const std::string &strategy) {
        ScenarioSpec spec;
        spec.label = "fig9 pair " + strategy;
        spec.trace = {.kind = "flat", .flatLevel = 0.08, .flatMinutes = 25};
        spec.strategy = strategy;
        spec.loop.perServer.overProvision = 0.35;
        spec.predictor = "NP";
        spec.seed = 42;
        spec.replications = 20;
        return spec;
    };
    const PairedComparison comparison =
        comparePaired(scenario("SS"), scenario("SS(C3)"));

    EXPECT_TRUE(comparison.significant("avg_power_w"));
    EXPECT_TRUE(comparison.significant("energy_j"));
    // SS consumes less power: the delta (SS - SS(C3)) is negative.
    EXPECT_LT(comparison.delta("avg_power_w").ciHigh(), 0.0);
    // Savings in percent are positive and significant.
    EXPECT_GT(comparison.delta("power_savings_pct").ciLow(), 0.0);

    // Non-overlapping marginal CIs.
    const MetricSummary &ss = comparison.a.metric("avg_power_w");
    const MetricSummary &ss_c3 = comparison.b.metric("avg_power_w");
    EXPECT_LT(ss.ciHigh(), ss_c3.ciLow());
}

// ------------------------------------------- analytic coverage oracle

/**
 * One grid point of the coverage sweep: simulate N independent
 * replications of an M/M/1 server under a fixed (f, state) policy and
 * ask whether the replication layer's CIs cover the closed forms.
 */
struct CoverageOutcome
{
    bool responseCovered = false;
    bool powerCovered = false;
};

CoverageOutcome
coveragePoint(const PlatformModel &platform, const MM1SleepModel &model,
              double rho, double f, LowPowerState state,
              double service_mean, std::uint64_t point_seed)
{
    const double mu = 1.0 / service_mean;
    const double lambda = rho * mu;
    const Policy policy{f, SleepPlan::immediate(state)};

    constexpr std::size_t replications = 10;
    constexpr std::size_t jobs_per_replication = 2500;

    std::vector<double> responses, powers;
    responses.reserve(replications);
    powers.reserve(replications);
    for (std::size_t i = 0; i < replications; ++i) {
        StationarySource source(
            std::make_unique<ExponentialDist>(1.0 / lambda),
            std::make_unique<ExponentialDist>(service_mean),
            replicationSeed(point_seed, i));
        const auto jobs = materialize(source, jobs_per_replication);
        const PolicyEvaluation eval = evaluatePolicy(
            platform, ServiceScaling::cpuBound(), policy, jobs);
        responses.push_back(eval.meanResponse());
        powers.push_back(eval.avgPower());
    }

    CoverageOutcome outcome;
    outcome.responseCovered =
        MetricSummary{"r", std::move(responses)}.covers(
            model.meanResponse(policy, lambda, mu));
    outcome.powerCovered = MetricSummary{"p", std::move(powers)}.covers(
        model.meanPower(policy, lambda, mu));
    return outcome;
}

TEST(AnalyticCoverage, CiCoversClosedFormsAtNominalRate)
{
    // ~200 (ρ, f, sleep-state) M/M/1 grid points, each replicated 10
    // times: the fraction of points whose 95% CI covers the closed
    // form must be consistent with the nominal level. With ~220
    // Bernoulli(0.95) trials, [0.90, 0.99] is a ±3σ acceptance band —
    // a miscalibrated interval (or a simulator bias) lands outside.
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);

    const std::vector<double> rhos{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    const std::vector<double> frequencies{0.4, 0.5, 0.65, 0.8, 1.0};
    const std::vector<double> service_means{0.05, 0.194};

    std::size_t points = 0, response_covered = 0, power_covered = 0;
    std::uint64_t point_seed = 20140614;
    for (double service_mean : service_means) {
        for (double rho : rhos) {
            for (double f : frequencies) {
                if (f < rho + 0.15)
                    continue; // keep the queue comfortably stable
                for (LowPowerState state : allLowPowerStates) {
                    const CoverageOutcome outcome = coveragePoint(
                        xeon, model, rho, f, state, service_mean,
                        point_seed++);
                    ++points;
                    response_covered += outcome.responseCovered;
                    power_covered += outcome.powerCovered;
                }
            }
        }
    }

    ASSERT_GE(points, 200u);
    std::cout << "coverage: response " << response_covered << "/"
              << points << ", power " << power_covered << "/" << points
              << " (nominal 95%)\n";
    const double response_rate =
        static_cast<double>(response_covered) /
        static_cast<double>(points);
    const double power_rate = static_cast<double>(power_covered) /
                              static_cast<double>(points);
    EXPECT_GE(response_rate, 0.90)
        << response_covered << "/" << points;
    EXPECT_LE(response_rate, 0.99)
        << response_covered << "/" << points;
    EXPECT_GE(power_rate, 0.90) << power_covered << "/" << points;
    EXPECT_LE(power_rate, 0.99) << power_covered << "/" << points;
}

} // namespace
} // namespace sleepscale
