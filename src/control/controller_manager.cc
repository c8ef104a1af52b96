#include "control/controller_manager.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace sleepscale {

namespace {

/** The loop regulates the measured QoS statistic toward this fraction
 * of the budget. Regulating at the budget itself would violate it on
 * every noise excursion, and the response-vs-load curve is convex, so
 * symmetric per-epoch oscillation around the goal pools to a mean
 * ABOVE it — the margin absorbs both effects, buying the headroom the
 * search path gets from picking the cheapest *strictly* feasible
 * candidate. */
constexpr double goalFraction = 0.7;

/** Fraction of the current QoS slack a sleep transition may spend on
 * wake latency. */
constexpr double wakeBudgetFraction = 0.5;

/** A plan's wake latency must also fit within one expected idle gap
 * times this factor, or deep sleep burns more than it saves. */
constexpr double wakeIdleFraction = 1.0;

/** Floor on the measured QoS statistic, seconds — guards the 1/x. */
constexpr double minQosSeconds = 1e-9;

/** Floor on the filtered base speed, 1/seconds. */
constexpr double minBaseSpeed = 1e-9;

/** Prior variances that make the first measurement dominate the
 * uninformed prior (the filters are primed by data, not by guesses
 * about the workload's scale). */
constexpr double loadPriorVariance = 1e2;
constexpr double perfPriorVariance = 1e8;

} // namespace

ControllerManager::ControllerManager(const PlatformModel &platform,
                                     ServiceScaling scaling,
                                     const PolicySpace &space,
                                     const QosConstraint &qos,
                                     const ControllerConfig &config,
                                     const Policy &initial)
    : _platform(&platform), _scaling(scaling), _qos(qos),
      _config(config), _initial(initial), _current(initial),
      _loadFilter(config.processNoise, config.measurementNoise, 0.0,
                  loadPriorVariance),
      _perfFilter(config.processNoise, config.measurementNoise, 1.0,
                  perfPriorVariance),
      _xup(platform, scaling, space, config)
{
    fatalIf(!(_config.processNoise > 0.0),
            "ControllerManager: process noise must be > 0");
    fatalIf(!(_config.measurementNoise > 0.0),
            "ControllerManager: measurement noise must be > 0");
    fatalIf(_config.periodEpochs == 0,
            "ControllerManager: control period must be >= 1 epoch");
}

bool
ControllerManager::needsLog() const
{
    return false;
}

PolicyDecision
ControllerManager::decide(const EpochObservation &observation,
                          const std::vector<Job> &)
{
    PolicyDecision decision;
    if (!observation.hasMeasurement) {
        // Cold start or an idle epoch: no QoS sample exists, so hold
        // the policy in force rather than steer on nothing.
        decision.policy = _current;
        decision.feasible = true;
        return decision;
    }

    // Filter the offered load (h = 1: load is measured at f = 1).
    const double measured_load =
        std::clamp(observation.measuredUtilization, 0.0, 1.0);
    const double load =
        std::clamp(_loadFilter.update(measured_load), 0.0, 1.0);

    // Filter the base speed: delivered speed = 1 / QoS statistic is
    // modeled as b * xup, so the applied speedup is the observation
    // gain and the filter estimates b.
    const double measured_qos =
        std::max(observation.measuredQos, minQosSeconds);
    const double speed = 1.0 / measured_qos;
    const double applied_xup =
        _xup.speedupOf(observation.applied.frequency);
    const double base =
        std::max(_perfFilter.update(speed, applied_xup), minBaseSpeed);

    // Integral control toward the speed goal, every periodEpochs-th
    // measured epoch.
    const double goal = 1.0 / (goalFraction * _qos.budget());
    if (++_epochsSinceStep >= _config.periodEpochs) {
        _epochsSinceStep = 0;
        _xup.step(goal - speed, base);
    }

    // Sleep-depth allowance: wake latency must fit both the current
    // QoS slack and the expected idle gap (M/M/1 at f = 1: mean idle
    // time per busy cycle is s * (1 - rho) / rho).
    const double slack =
        std::max(0.0, 1.0 - measured_qos / _qos.budget());
    double allowance = wakeBudgetFraction * slack * _qos.budget();
    if (observation.meanJobSize > 0.0 && load > 0.0) {
        const double idle_gap =
            observation.meanJobSize * (1.0 - load) / load;
        allowance = std::min(allowance, wakeIdleFraction * idle_gap);
    }

    const double planning_load = std::max(
        load, std::clamp(observation.predictedUtilization, 0.0, 1.0));
    decision.policy = _xup.translate(planning_load, allowance);
    decision.feasible = !(_xup.saturatedHigh() && speed < goal);
    decision.predictedMetric = measured_qos;
    decision.predictedPower =
        estimatePower(decision.policy, planning_load);
    decision.evaluated = 1;
    _current = decision.policy;
    return decision;
}

void
ControllerManager::reset()
{
    _loadFilter.reset();
    _perfFilter.reset();
    _xup.reset();
    _current = _initial;
    _epochsSinceStep = 0;
}

double
ControllerManager::estimatePower(const Policy &policy, double load) const
{
    const double util = std::clamp(
        load * _scaling.factor(policy.frequency), 0.0, 1.0);
    const double active = _platform->activePower(policy.frequency);
    const double idle =
        _platform->lowPower(policy.plan.deepest(), policy.frequency);
    return util * active + (1.0 - util) * idle;
}

} // namespace sleepscale
