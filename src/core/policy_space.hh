/**
 * @file
 * The candidate set the policy manager searches over.
 */

#ifndef SLEEPSCALE_CORE_POLICY_SPACE_HH
#define SLEEPSCALE_CORE_POLICY_SPACE_HH

#include <vector>

#include "sim/policy.hh"
#include "sim/sleep_plan.hh"

namespace sleepscale {

/**
 * Cross product of candidate sleep plans and a frequency grid.
 *
 * A real system exposes roughly ten P-states (the paper, Section 4.1);
 * the default grid reflects that. Figure-generating benches use finer
 * grids via frequencyGrid().
 */
struct PolicySpace
{
    std::vector<SleepPlan> plans;   ///< Candidate sleep plans.
    std::vector<double> frequencies; ///< Candidate DVFS factors, (0, 1].

    /** Field-wise equality. */
    bool operator==(const PolicySpace &) const = default;

    /** Number of (plan, frequency) combinations. */
    std::size_t size() const { return plans.size() * frequencies.size(); }

    /**
     * Evenly spaced frequency grid {lo, lo+step, ..., hi} (hi always
     * included).
     */
    static std::vector<double> frequencyGrid(double lo, double hi,
                                             double step);

    /**
     * The SleepScale default: all five single-state plans crossed with a
     * realistic ~15-point frequency grid.
     */
    static PolicySpace standard();

    /** All five single-state plans over a caller-provided grid. */
    static PolicySpace allStates(std::vector<double> frequencies);
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_POLICY_SPACE_HH
