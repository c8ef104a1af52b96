/**
 * @file
 * Quality-of-service constraints (paper Section 5.1.1).
 *
 * The paper anchors QoS to a baseline system provisioned for a peak
 * design utilization ρ_b running flat out (f = 1, no sleep states). Under
 * the idealized M/M/1 model that baseline achieves a normalized mean
 * response time µE[R] = 1/(1-ρ_b), which becomes the budget; the
 * 95th-percentile variant budgets the deadline d with
 * Pr(R >= d) = e^{-µ(1-ρ_b)d} = 5%, i.e. µd = ln(20)/(1-ρ_b).
 */

#ifndef SLEEPSCALE_CORE_QOS_HH
#define SLEEPSCALE_CORE_QOS_HH

#include <string>

#include "analytic/mm1_sleep.hh"
#include "sim/sim_stats.hh"
#include "util/quantile_histogram.hh"

namespace sleepscale {

/** Which response-time statistic the constraint bounds. */
enum class QosMetric
{
    MeanResponse, ///< E[R] <= budget.
    TailResponse, ///< 95th-percentile R <= budget (Pr(R >= d) <= 5%).
};

/** Name of a metric for reports. */
std::string toString(QosMetric metric);

/** A bound on a response-time statistic, in absolute seconds. */
class QosConstraint
{
  public:
    /**
     * Mean-response constraint: E[R] <= budget_seconds.
     */
    static QosConstraint meanBudget(double budget_seconds);

    /**
     * Tail constraint: the `quantile` response-time percentile must not
     * exceed deadline_seconds.
     */
    static QosConstraint tailBudget(double deadline_seconds,
                                    double quantile = 95.0);

    /**
     * The paper's baseline-derived mean constraint for peak design
     * utilization ρ_b: E[R] <= serviceMean / (1 - ρ_b).
     */
    static QosConstraint fromBaselineMean(double rho_b,
                                          double service_mean);

    /**
     * The paper's baseline-derived tail constraint:
     * d = ln(1/ε) * serviceMean / (1 - ρ_b) with ε the violation
     * probability (default 5%).
     */
    static QosConstraint fromBaselineTail(double rho_b, double service_mean,
                                          double violation = 0.05);

    /** The bounded metric. */
    QosMetric metric() const { return _metric; }

    /** The budget in seconds. */
    double budget() const { return _budget; }

    /** Percentile used by tail constraints (e.g. 95). */
    double quantile() const { return _quantile; }

    /** The measured statistic a simulation compares against the budget. */
    double measuredValue(const SimStats &stats) const;

    /** The measured statistic from a mean response time and a response
     * histogram; only the one the metric reads is used. */
    double measuredValue(double mean_response,
                         const QuantileHistogram &responses) const;

    /** Whether measured statistics meet the constraint. */
    bool satisfiedBy(const SimStats &stats) const;

    /** Closed-form statistic under the idealized model. */
    double analyticValue(const MM1SleepModel &model, const Policy &policy,
                         double lambda, double mu) const;

    /** Whether the idealized model predicts the constraint is met. */
    bool satisfiedByAnalytic(const MM1SleepModel &model,
                             const Policy &policy, double lambda,
                             double mu) const;

  private:
    QosConstraint(QosMetric metric, double budget, double quantile);

    QosMetric _metric;
    double _budget;
    double _quantile;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_QOS_HH
