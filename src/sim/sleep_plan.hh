/**
 * @file
 * Sleep-state descent plans (paper Section 3.2).
 *
 * When the job queue empties the server walks through an ordered sequence
 * of low-power states, entering stage i at time τ_i after the queue
 * emptied. The next arrival interrupts the descent and pays the wake-up
 * latency of the stage occupied at that instant. A plan is an abstract
 * recipe (states and entry delays); concrete powers and latencies are
 * materialized against a PlatformModel at an operating frequency, because
 * C0(i)/C1 stage power depends on the frequency the clock idles at.
 */

#ifndef SLEEPSCALE_SIM_SLEEP_PLAN_HH
#define SLEEPSCALE_SIM_SLEEP_PLAN_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "power/low_power_state.hh"
#include "power/platform_model.hh"

namespace sleepscale {

/** One stage of a sleep descent: a state and its entry delay τ. */
struct SleepStage
{
    LowPowerState state;     ///< The state entered.
    double enterAfter = 0.0; ///< τ, seconds after the queue empties.
};

/**
 * Ordered descent through low-power states.
 *
 * Invariants (checked at construction): at least one stage; the first
 * stage is entered immediately (τ_1 = 0); entry delays strictly increase;
 * states strictly deepen. These mirror the paper's
 * τ_1 < τ_2 < ... < τ_n, P_1 > P_2 > ... > P_n, w_1 < w_2 < ... < w_n.
 */
class SleepPlan
{
  public:
    /** @param stages The descent, shallowest first. */
    explicit SleepPlan(std::vector<SleepStage> stages);

    /** Enter a single state as soon as the queue empties (τ = 0). */
    static SleepPlan immediate(LowPowerState state);

    /**
     * Idle in C0(i)S0(i) first, then drop into a deeper state after a
     * delay (the paper's "C0(i)S0(i) -> C6S3, τ2 = ..." policies).
     *
     * @param state Deep state to fall into.
     * @param delay Seconds of idleness before entering it (> 0).
     */
    static SleepPlan delayed(LowPowerState state, double delay);

    /**
     * The paper's "sequential power throttle-back": enter all five states
     * in order with the given positive, increasing delays for stages 2..5
     * (stage 1, C0(i)S0(i), is entered immediately).
     *
     * @param delays Entry delays for C1S0(i), C3S0(i), C6S0(i), C6S3.
     */
    static SleepPlan throttleBack(const std::vector<double> &delays);

    /** The stages, shallowest first. */
    const std::vector<SleepStage> &stages() const { return _stages; }

    /** Number of stages. */
    std::size_t size() const { return _stages.size(); }

    /** Deepest state in the plan. */
    LowPowerState deepest() const { return _stages.back().state; }

    /** Human-readable form, e.g. "C0(i)S0(i)->C6S3@0.126". */
    std::string toString() const;

  private:
    std::vector<SleepStage> _stages;
};

/**
 * A SleepPlan bound to a platform and frequency: concrete
 * (P_i, τ_i, w_i) triples ready for the simulator's inner loop.
 *
 * Storage is fixed-capacity inline arrays (a plan has at most one stage
 * per low-power state), so a MaterializedPlan is trivially copyable and
 * copying one allocates nothing. Stage lookup is a binary search over
 * the entry delays, and idle-energy integration is O(log S) through
 * cumulative-energy prefix sums; replayBlock() instead reads the stage
 * arrays through the accessors and selects stages branch-free.
 */
class MaterializedPlan
{
  public:
    /** States strictly deepen along a plan, so stages are bounded. */
    static constexpr std::size_t maxStages = numLowPowerStates;

    /**
     * @param plan Abstract plan.
     * @param platform Power model supplying powers and latencies.
     * @param f Operating frequency the server idles at.
     */
    MaterializedPlan(const SleepPlan &plan, const PlatformModel &platform,
                     double f);

    /** Number of stages. */
    std::size_t size() const { return _size; }

    /** Index of the stage occupied after `elapsed` seconds of idleness. */
    std::size_t stageAt(double elapsed) const;

    /** Power drawn in stage i, watts. */
    double power(std::size_t i) const { return _power[i]; }

    /** Entry delay of stage i, seconds. */
    double enterAfter(std::size_t i) const { return _enterAfter[i]; }

    /** Wake-up latency from stage i, seconds. */
    double wakeLatency(std::size_t i) const { return _wake[i]; }

    /** The low-power state of stage i. */
    LowPowerState state(std::size_t i) const { return _state[i]; }

    /** Joules consumed from the idle start until entering stage i. */
    double energyBeforeStage(std::size_t i) const { return _cumEnergy[i]; }

    /**
     * Joules consumed by `elapsed` seconds of uninterrupted descent
     * from the idle start (prefix-sum lookup, O(log S)).
     */
    double
    idleEnergy(double elapsed) const
    {
        const std::size_t stage = stageAt(elapsed);
        return _cumEnergy[stage] +
               _power[stage] * (elapsed - _enterAfter[stage]);
    }

  private:
    std::size_t _size = 0;
    std::array<double, maxStages> _power{};
    std::array<double, maxStages> _enterAfter{};
    std::array<double, maxStages> _wake{};
    std::array<double, maxStages> _cumEnergy{};
    std::array<LowPowerState, maxStages> _state{};
};

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_SLEEP_PLAN_HH
