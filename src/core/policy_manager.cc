#include "core/policy_manager.hh"

#include <cmath>
#include <limits>

#include "analytic/mm1_sleep.hh"
#include "util/error.hh"

namespace sleepscale {

PolicyManager::PolicyManager(const PlatformModel &platform,
                             ServiceScaling scaling, PolicySpace space,
                             QosConstraint qos, EvalEngineOptions options)
    : _platform(platform), _scaling(scaling),
      _engine(std::make_unique<PolicyEvalEngine>(
          platform, scaling, std::move(space), qos, options))
{
}

double
PolicyManager::logOfferedLoad(const std::vector<Job> &log)
{
    // Delegate so the span-from-zero convention lives in one place.
    return PreparedLog::fromJobs(log).offeredLoad();
}

double
PolicyManager::logMeanSize(const std::vector<Job> &log)
{
    return PreparedLog::fromJobs(log).meanSize();
}

PolicyDecision
PolicyManager::selectFromLog(const std::vector<Job> &log) const
{
    return _engine->selectFromLog(log);
}

bool
PolicyManager::needsLog() const
{
    return true;
}

PolicyDecision
PolicyManager::decide(const EpochObservation &, const std::vector<Job> &log)
{
    return selectFromLog(log);
}

void
PolicyManager::reset()
{
    // Selection is stateless across epochs; the engine's caches are
    // keyed by inputs, so there is nothing to restore.
}

PolicyDecision
PolicyManager::selectAnalytic(double lambda, double mu) const
{
    fatalIf(lambda <= 0.0 || mu <= 0.0,
            "PolicyManager::selectAnalytic: rates must be positive");
    const MM1SleepModel model(_platform, _scaling);
    const double rho = lambda / mu;
    const double f_floor = _engine->minStableFrequency(rho);
    const PolicySpace &space = _engine->space();
    const QosConstraint &qos = _engine->qos();

    PolicyDecision best;
    PolicyDecision fallback;
    double best_power = std::numeric_limits<double>::infinity();
    double fallback_metric = std::numeric_limits<double>::infinity();
    std::uint64_t evaluated = 0;

    for (const SleepPlan &plan : space.plans) {
        for (double f : space.frequencies) {
            if (f < f_floor)
                continue;
            const Policy candidate{f, plan};
            const double metric =
                qos.analyticValue(model, candidate, lambda, mu);
            const double power = model.meanPower(candidate, lambda, mu);
            ++evaluated;

            if (metric <= qos.budget() && power < best_power) {
                best_power = power;
                best.policy = candidate;
                best.feasible = true;
                best.predictedPower = power;
                best.predictedMetric = metric;
            }
            if (metric < fallback_metric) {
                fallback_metric = metric;
                fallback.policy = candidate;
                fallback.predictedPower = power;
                fallback.predictedMetric = metric;
            }
        }
    }

    fatalIf(evaluated == 0,
            "PolicyManager::selectAnalytic: no stable candidate; arrival "
            "rate too high for the frequency grid");

    PolicyDecision decision = best.feasible ? best : fallback;
    decision.evaluated = evaluated;
    return decision;
}

} // namespace sleepscale
