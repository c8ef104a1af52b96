#include "farm/rate_scaler.hh"

#include <algorithm>

#include "util/error.hh"

namespace sleepscale {

namespace {

/** Floor of the Robbins–Monro gain: past the 20th observation every
 * step moves the estimate 5% of the way to the observed load. */
constexpr double gainFloor = 0.05;

} // namespace

DistributedRateScaler::DistributedRateScaler(
    std::vector<double> frequencies, ServiceScaling scaling,
    const Policy &initial, double target)
    : _frequencies(std::move(frequencies)), _scaling(scaling),
      _initial(initial), _target(target)
{
    fatalIf(_frequencies.empty(),
            "DistributedRateScaler: need at least one frequency");
    for (double f : _frequencies)
        fatalIf(!(f > 0.0 && f <= 1.0),
                "DistributedRateScaler: frequencies must be in (0, 1]");
    fatalIf(!(_target > 0.0 && _target <= 1.0),
            "DistributedRateScaler: target utilization must be in "
            "(0, 1]");
    std::sort(_frequencies.begin(), _frequencies.end());
}

PolicyDecision
DistributedRateScaler::decide(const EpochObservation &observation,
                              const std::vector<Job> &log)
{
    (void)log;

    // Robbins–Monro update of the local offered-load estimate. The
    // measured utilization is demand-based, so an idle epoch is a
    // legitimate observation of zero load, not a missing one.
    const double observed =
        std::clamp(observation.measuredUtilization, 0.0, 1.0);
    ++_samples;
    const double gain =
        std::max(1.0 / static_cast<double>(_samples), gainFloor);
    _lambda += gain * (observed - _lambda);

    // Slowest frequency that keeps the scaled utilization under the
    // target; when even full speed cannot, run full speed and report
    // the decision infeasible.
    PolicyDecision decision;
    decision.policy = _initial;
    decision.policy.frequency = _frequencies.back();
    for (double f : _frequencies) {
        ++decision.evaluated;
        const double utilization = _lambda * _scaling.factor(f);
        if (utilization <= _target) {
            decision.policy.frequency = f;
            decision.feasible = true;
            decision.predictedMetric = utilization / _target;
            break;
        }
    }
    return decision;
}

void
DistributedRateScaler::reset()
{
    _lambda = 0.0;
    _samples = 0;
}

} // namespace sleepscale
