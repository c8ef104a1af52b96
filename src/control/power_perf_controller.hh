/**
 * @file
 * The xup integrator and operating-point translator of the O(1)
 * control path (docs/CONTROL.md).
 *
 * Follows POET's calc_xup_state / apply loop (SNIPPETS.md): a
 * pole-placement integral controller accumulates the speedup ("xup")
 * needed to close the measured performance error, and a translation
 * stage maps that continuous speedup onto the platform's discrete
 * (frequency, sleep plan) pairs — interpolating between the two
 * adjacent grid frequencies with cumulative-error (error-diffusion)
 * feedback so the *time-average* applied speedup matches the request,
 * with anti-windup clamping at the grid edges.
 */

#ifndef SLEEPSCALE_CONTROL_POWER_PERF_CONTROLLER_HH
#define SLEEPSCALE_CONTROL_POWER_PERF_CONTROLLER_HH

#include <vector>

#include "control/controller_config.hh"
#include "core/policy_space.hh"
#include "power/platform_model.hh"
#include "sim/policy.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * Integral xup controller plus grid translation. Value-semantic (the
 * platform's wake latencies are captured at construction), so clone
 * and reset determinism are trivial to test.
 */
class PowerPerfController
{
  public:
    /**
     * @param platform Wake latencies of the candidate sleep plans are
     *        read here at construction (not retained).
     * @param scaling Service-time scaling law (defines the
     *        frequency-to-speedup map).
     * @param space Candidate plans and the frequency grid the
     *        translation clamps to.
     * @param config Pole placement (the other knobs live in the
     *        Kalman filters); the whole config is validated here.
     */
    PowerPerfController(const PlatformModel &platform,
                        ServiceScaling scaling, const PolicySpace &space,
                        const ControllerConfig &config);

    /** Speedup of running at `frequency` relative to the slowest grid
     * frequency: factor(f_min) / factor(f). */
    double speedupOf(double frequency) const;

    /** Lowest reachable speedup (1 by construction). */
    double xupMin() const { return _uMin; }

    /** Speedup of the fastest grid frequency. */
    double xupMax() const { return _uMax; }

    /** Current integrator state, in [xupMin, xupMax]. */
    double xup() const { return _u; }

    /** The integrator is pinned at xupMax (anti-windup engaged). */
    bool saturatedHigh() const;

    /**
     * One integral control step: u += (1 − pole) · error / base_speed,
     * clamped to the reachable speedup range (anti-windup).
     *
     * @param error Performance error e = goal_speed − measured_speed.
     * @param base_speed Kalman-filtered base speed b̂ (> 0) relating
     *        speedup to delivered performance: speed ≈ b̂ · xup.
     */
    void step(double error, double base_speed);

    /**
     * Translate the current xup into a concrete policy.
     *
     * The continuous target frequency (the xup's grid interpolation,
     * raised to the stability floor implied by the load estimate) is
     * error-diffused between its two adjacent grid frequencies; the
     * sleep plan is the deepest candidate whose wake latency fits the
     * allowance.
     *
     * @param load_estimate Offered load at f = 1 the epoch must stay
     *        stable under, in [0, 1].
     * @param wake_allowance Largest tolerable wake latency, seconds.
     */
    Policy translate(double load_estimate, double wake_allowance);

    /** Restore the freshly constructed integrator state. */
    void reset();

  private:
    /** Continuous frequency delivering speedup `u` (grid-clamped). */
    double frequencyOf(double u) const;

    /** Lowest frequency keeping utilization under the design cap at
     * the given offered load. */
    double stabilityFloor(double load) const;

    /** Deepest plan whose wake latency fits the allowance. */
    const SleepPlan &planFor(double wake_allowance) const;

    ServiceScaling _scaling;
    double _pole;
    std::vector<double> _grid;     ///< Ascending unique frequencies.
    std::vector<double> _speedups; ///< speedupOf(_grid[i]), ascending.
    /** Candidate plans sorted by deepest-state wake latency. */
    std::vector<SleepPlan> _plansByWake;
    std::vector<double> _wakeLatencies; ///< Parallel to _plansByWake.
    double _uMin;
    double _uMax;
    double _u;
    double _accumulator = 0.0; ///< Error-diffusion residual.
};

} // namespace sleepscale

#endif // SLEEPSCALE_CONTROL_POWER_PERF_CONTROLLER_HH
