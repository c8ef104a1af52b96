/**
 * @file
 * Knobs of the O(1) feedback-control decision path (docs/CONTROL.md).
 *
 * A leaf header so core/runtime.hh can embed the configuration without
 * pulling the controller implementation into every runtime user.
 */

#ifndef SLEEPSCALE_CONTROL_CONTROLLER_CONFIG_HH
#define SLEEPSCALE_CONTROL_CONTROLLER_CONFIG_HH

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

/**
 * Configuration of the POET-style Kalman + xup controller registered
 * as strategy "poet". Defaults are the tuned values the bench suite
 * and docs/CONTROL.md describe; the CLI exposes them as
 * --controller-q/-r/-pole/-period.
 */
struct ControllerConfig
{
    /** Kalman process-noise variance Q (finite, > 0) of both filters.
     * Larger values track load shifts faster at the cost of noise. */
    double processNoise = 1e-4;

    /** Kalman measurement-noise variance R (finite, > 0). Larger values
     * trust each epoch's sample less and smooth harder. */
    double measurementNoise = 1e-2;

    /** Z-plane pole of the integral xup controller, in [0, 1). 0 is
     * deadbeat (close the whole error every control step); values
     * toward 1 respond more slowly but damp oscillation. */
    double pole = 0.0;

    /** Control period as a multiple of the runtime epoch (>= 1). The
     * filters update every epoch; the xup integrator steps only every
     * periodEpochs-th epoch. */
    unsigned periodEpochs = 1;

    /** Field-wise equality. */
    bool operator==(const ControllerConfig &) const = default;

    /** fatal() on the first knob out of range (NaN and infinities fail):
     * the one check of these knobs, run by PowerPerfController and by
     * validateFarmConfig(). */
    void validate() const
    {
        fatalIf(!(processNoise > 0.0) || !std::isfinite(processNoise),
                "ControllerConfig: process noise must be finite and > 0");
        fatalIf(!(measurementNoise > 0.0) ||
                    !std::isfinite(measurementNoise),
                "ControllerConfig: measurement noise must be finite and "
                "> 0");
        fatalIf(!(pole >= 0.0 && pole < 1.0),
                "ControllerConfig: pole must be in [0, 1)");
        fatalIf(periodEpochs == 0,
                "ControllerConfig: control period must be >= 1 epoch");
    }
};

} // namespace sleepscale

#endif // SLEEPSCALE_CONTROL_CONTROLLER_CONFIG_HH
