/**
 * @file
 * The O(1) per-epoch decision path: Kalman filters + xup control
 * behind the EpochDecider interface (docs/CONTROL.md).
 *
 * Where PolicyManager simulates the full (plan, frequency) cross
 * product against a rescaled job log (~ms per decision),
 * ControllerManager folds three scalars — measured offered load, the
 * measured QoS statistic, and the mean job size — into two Kalman
 * filters and one integrator step (~µs per decision, independent of
 * epoch length, log size, and policy-space size). That constant cost
 * is what makes per-server control at 10k-server farm sizes feasible;
 * bench/bench_controller.cc measures both claims.
 */

#ifndef SLEEPSCALE_CONTROL_CONTROLLER_MANAGER_HH
#define SLEEPSCALE_CONTROL_CONTROLLER_MANAGER_HH

#include <vector>

#include "control/controller_config.hh"
#include "control/kalman_estimator.hh"
#include "control/power_perf_controller.hh"
#include "core/epoch_decider.hh"
#include "core/policy_space.hh"
#include "core/qos.hh"
#include "power/platform_model.hh"
#include "sim/policy.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * Feedback-control EpochDecider (strategy "poet").
 *
 * Copy-constructible so fuzz tests can clone mid-run state; copies
 * share the (unowned) platform model. Same thread-safety contract as
 * PolicyManager: one instance per concurrent control loop.
 */
class ControllerManager : public EpochDecider
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the
     *        manager).
     * @param scaling Service-time scaling law of the hosted workload.
     * @param space Candidate plans and frequencies the controller's
     *        output is clamped to.
     * @param qos Constraint the feedback loop regulates toward.
     * @param config Filter and controller knobs
     *        (ControllerConfig::validate()).
     * @param initial Policy in force before the first decision.
     */
    ControllerManager(const PlatformModel &platform,
                      ServiceScaling scaling, const PolicySpace &space,
                      const QosConstraint &qos,
                      const ControllerConfig &config,
                      const Policy &initial);

    bool needsLog() const override;

    PolicyDecision decide(const EpochObservation &observation,
                          const PreparedLog &log) override;

    void reset() override;

    /** The QoS constraint the loop regulates toward. */
    const QosConstraint &qos() const { return _qos; }

  private:
    /** Mean-power estimate of running `policy` at offered load
     * `load` — reported as PolicyDecision::predictedPower for parity
     * with the search path's telemetry, not used for control. */
    double estimatePower(const Policy &policy, double load) const;

    const PlatformModel *_platform;
    ServiceScaling _scaling;
    QosConstraint _qos;
    ControllerConfig _config;
    Policy _initial;
    Policy _current;
    KalmanEstimator _loadFilter;
    KalmanEstimator _perfFilter;
    PowerPerfController _xup;
    unsigned _epochsSinceStep = 0;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CONTROL_CONTROLLER_MANAGER_HH
