/**
 * @file
 * A power-management policy: the joint (frequency, sleep plan) choice.
 *
 * "Policy" throughout this library means exactly what it means in the
 * paper: a combination of a DVFS frequency setting and a prescription for
 * which low-power state(s) to enter when idle, and when.
 */

#ifndef SLEEPSCALE_SIM_POLICY_HH
#define SLEEPSCALE_SIM_POLICY_HH

#include <string>

#include "sim/sleep_plan.hh"

namespace sleepscale {

/** Joint frequency / sleep-plan setting. */
struct Policy
{
    /** DVFS frequency scaling factor in (0, 1]. */
    double frequency = 1.0;

    /** Sleep descent followed when the queue empties. */
    SleepPlan plan = SleepPlan::immediate(LowPowerState::C0IdleS0Idle);

    /** Human-readable form, e.g. "f=0.42 C6S3". */
    std::string toString() const;

    /** Field-wise equality. */
    bool operator==(const Policy &) const = default;
};

/** Race-to-halt (paper [25]): run flat out, sleep immediately. */
Policy raceToHalt(LowPowerState state);

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_POLICY_HH
