/**
 * @file
 * Heavy-tail behaviour tests built around the Mail workload (service
 * Cv = 3.6). The paper's Section 5.1.2 observation 2: mean-response
 * constraints care only about means, but 95th-percentile constraints
 * depend critically on the variation of job sizes — so tail-constrained
 * policies must diverge from mean-constrained ones exactly when the
 * workload is heavy-tailed.
 */

#include <gtest/gtest.h>

#include "analytic/mm1_sleep.hh"
#include "core/policy_manager.hh"
#include "power/platform_model.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

class HeavyTail : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    WorkloadSpec mail = mailWorkload();

    std::vector<Job>
    mailJobs(double rho, std::size_t n, std::uint64_t seed) const
    {
        StationarySource source(mail, rho, seed);
        return materialize(source, n);
    }
};

TEST_F(HeavyTail, TailToMeanRatioGrowsWithServiceCv)
{
    // Same mean, increasing Cv: the simulated p95/mean response ratio
    // must grow (the effect behind Figure 6(c)/(d)).
    const double rho = 0.4;
    double previous_ratio = 0.0;
    for (double cv : {1.0, 2.0, 3.6}) {
        StationarySource source(
            fitDistribution(mail.serviceMean / rho, 1.0),
            fitDistribution(mail.serviceMean, cv), 42);
        const auto jobs = materialize(source, 200000);
        const PolicyEvaluation eval = evaluatePolicy(
            xeon, mail.scaling,
            Policy{1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)},
            jobs);
        const double ratio = eval.p95Response() / eval.meanResponse();
        EXPECT_GT(ratio, previous_ratio) << "cv=" << cv;
        previous_ratio = ratio;
    }
    EXPECT_GT(previous_ratio, 3.0);
}

TEST_F(HeavyTail, TailConstraintDemandsMoreThanMeanConstraint)
{
    // At the same rho_b, the policy chosen under the tail budget must
    // spend at least as much power as the one under the mean budget —
    // the tail is the harder constraint for Cv >> 1.
    const double rho = 0.4;
    const auto jobs = mailJobs(rho, 150000, 7);
    const PolicySpace space = PolicySpace::allStates(
        PolicySpace::frequencyGrid(0.2, 1.0, 0.02));

    const PolicyManager mean_manager(
        xeon, mail.scaling, space,
        QosConstraint::fromBaselineMean(0.9, mail.serviceMean));
    const PolicyManager tail_manager(
        xeon, mail.scaling, space,
        QosConstraint::fromBaselineTail(0.9, mail.serviceMean));

    const PolicyDecision by_mean = mean_manager.selectFromLog(jobs);
    const PolicyDecision by_tail = tail_manager.selectFromLog(jobs);

    EXPECT_TRUE(by_mean.feasible);
    EXPECT_GE(by_tail.policy.frequency, by_mean.policy.frequency);
    EXPECT_GE(by_tail.predictedPower, by_mean.predictedPower * 0.999);
}

TEST_F(HeavyTail, IdealizedModelUnderestimatesHeavyTailResponse)
{
    // Observation 2 of Section 5.1.2: the idealized (M/M/1) model is
    // good when moments are near-Poisson and misleading otherwise. For
    // Mail the true mean response exceeds the exponential-service
    // prediction at the same utilization.
    const double rho = 0.5;
    const double mu = 1.0 / mail.serviceMean;
    const MM1SleepModel model(xeon);
    const Policy policy{
        1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)};

    const auto jobs = mailJobs(rho, 400000, 11);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, mail.scaling, policy, jobs);

    const double ideal = model.meanResponse(policy, rho * mu, mu);
    const double mg1 =
        model.meanResponseMG1(policy, rho * mu, mu, mail.serviceCv);
    EXPECT_GT(eval.meanResponse(), ideal * 1.5);
    // The M/G/1 extension closes most of the gap (arrivals are still
    // non-Poisson, Cv = 1.9, so a residual remains).
    EXPECT_NEAR(eval.meanResponse() / mg1, 1.0, 0.35);
    EXPECT_GT(mg1, ideal);
}

TEST_F(HeavyTail, MeanConstrainedSelectionStillFindsSleepStates)
{
    // Even with heavy tails the policy manager finds a feasible policy
    // that sleeps — heavy tails change *which* policy, not whether the
    // joint optimization works.
    const auto jobs = mailJobs(0.2, 100000, 13);
    const PolicyManager manager(
        xeon, mail.scaling,
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.2, 1.0,
                                                          0.02)),
        QosConstraint::fromBaselineMean(0.9, mail.serviceMean));
    const PolicyDecision decision = manager.selectFromLog(jobs);
    EXPECT_TRUE(decision.feasible);
    EXPECT_LT(decision.predictedPower,
              evaluatePolicy(xeon, mail.scaling,
                             raceToHalt(LowPowerState::C0IdleS0Idle),
                             jobs)
                  .avgPower());
}

} // namespace
} // namespace sleepscale
