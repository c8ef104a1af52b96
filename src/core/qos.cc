#include "core/qos.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

std::string
toString(QosMetric metric)
{
    switch (metric) {
      case QosMetric::MeanResponse:
        return "E[R]";
      case QosMetric::TailResponse:
        return "Pr(R>=d)";
    }
    panic("toString: unknown QosMetric");
}

QosConstraint::QosConstraint(QosMetric metric, double budget,
                             double quantile)
    : _metric(metric), _budget(budget), _quantile(quantile)
{
    fatalIf(budget <= 0.0, "QosConstraint: budget must be positive");
    fatalIf(quantile <= 0.0 || quantile >= 100.0,
            "QosConstraint: quantile must be in (0, 100)");
}

QosConstraint
QosConstraint::meanBudget(double budget_seconds)
{
    return QosConstraint(QosMetric::MeanResponse, budget_seconds, 95.0);
}

QosConstraint
QosConstraint::tailBudget(double deadline_seconds, double quantile)
{
    return QosConstraint(QosMetric::TailResponse, deadline_seconds,
                         quantile);
}

QosConstraint
QosConstraint::fromBaselineMean(double rho_b, double service_mean)
{
    fatalIf(rho_b <= 0.0 || rho_b >= 1.0,
            "QosConstraint: rho_b must be in (0, 1)");
    fatalIf(service_mean <= 0.0,
            "QosConstraint: service_mean must be positive");
    return meanBudget(service_mean / (1.0 - rho_b));
}

QosConstraint
QosConstraint::fromBaselineTail(double rho_b, double service_mean,
                                double violation)
{
    fatalIf(rho_b <= 0.0 || rho_b >= 1.0,
            "QosConstraint: rho_b must be in (0, 1)");
    fatalIf(service_mean <= 0.0,
            "QosConstraint: service_mean must be positive");
    fatalIf(violation <= 0.0 || violation >= 1.0,
            "QosConstraint: violation probability must be in (0, 1)");
    const double deadline =
        std::log(1.0 / violation) * service_mean / (1.0 - rho_b);
    return tailBudget(deadline, 100.0 * (1.0 - violation));
}

double
QosConstraint::measuredValue(const SimStats &stats) const
{
    return measuredValue(stats.meanResponse(), stats.responseHistogram);
}

double
QosConstraint::measuredValue(double mean_response,
                             const QuantileHistogram &responses) const
{
    switch (_metric) {
      case QosMetric::MeanResponse:
        return mean_response;
      case QosMetric::TailResponse:
        return responses.percentile(_quantile);
    }
    panic("QosConstraint::measuredValue: unknown metric");
}

bool
QosConstraint::satisfiedBy(const SimStats &stats) const
{
    return measuredValue(stats) <= _budget;
}

double
QosConstraint::analyticValue(const MM1SleepModel &model,
                             const Policy &policy, double lambda,
                             double mu) const
{
    if (_metric == QosMetric::MeanResponse)
        return model.meanResponse(policy, lambda, mu);

    // Invert the tail: find d with Pr(R >= d) = 1 - quantile/100.
    // Pr(R >= d) is continuous and strictly decreasing in d.
    const double target = 1.0 - _quantile / 100.0;
    double lo = 0.0;
    double hi = _budget;
    while (model.tailProbability(policy, lambda, mu, hi) > target)
        hi *= 2.0;
    for (int iter = 0; iter < 100; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (model.tailProbability(policy, lambda, mu, mid) > target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

bool
QosConstraint::satisfiedByAnalytic(const MM1SleepModel &model,
                                   const Policy &policy, double lambda,
                                   double mu) const
{
    return analyticValue(model, policy, lambda, mu) <= _budget;
}

} // namespace sleepscale
