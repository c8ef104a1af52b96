/**
 * @file
 * The per-epoch decision interface shared by the search-based policy
 * manager and the O(1) feedback controller.
 *
 * FarmRuntime's epoch loop (which SleepScaleRuntime runs on a one-server
 * farm) makes exactly one policy decision per decider per epoch. The
 * *decision mechanism* is split from the *decision site*: the loop
 * talks to an EpochDecider, and two implementations plug in —
 *
 *  - PolicyManager (core/policy_manager.hh): replay every candidate
 *    (plan, frequency) pair over a rescaled job log and pick the
 *    cheapest QoS-feasible one (~0.1 ms per decision on a mail-day
 *    log; needsLog() = true). The log is a PreparedLog that the runtime
 *    rescales its history into, reused from decision to decision, so
 *    the decider reads the arrays the replay kernel streams and no
 *    decision builds or copies a job list.
 *  - ControllerManager (control/controller_manager.hh): Kalman-filtered
 *    POET-style feedback control from scalar epoch observations
 *    (~µs per decision; needsLog() = false, so the runtimes skip log
 *    construction entirely).
 *
 * The observation struct carries everything a log-free decider can use;
 * log-based deciders ignore it and read the job log instead. Both paths
 * are deterministic: decisions are pure functions of the construction
 * configuration, the observation/log stream, and the decider's own
 * state, with no clocks or ambient entropy (docs/CONCURRENCY.md).
 */

#ifndef SLEEPSCALE_CORE_EPOCH_DECIDER_HH
#define SLEEPSCALE_CORE_EPOCH_DECIDER_HH

#include "core/eval_engine.hh"
#include "sim/policy.hh"
#include "sim/server_sim.hh"

namespace sleepscale {

/**
 * Scalar measurements from the epoch that just closed, handed to the
 * decider at the epoch boundary. All values describe the *previous*
 * epoch window; the prediction describes the upcoming one.
 */
struct EpochObservation
{
    /** Forecast offered load of the upcoming epoch, in [0, 1]. */
    double predictedUtilization = 0.0;

    /** Measured offered load of the closed epoch (demand at f = 1 over
     * wall time; per-server view in farms). */
    double measuredUtilization = 0.0;

    /** Measured value of the constrained QoS statistic over the closed
     * epoch, seconds; meaningful only when hasMeasurement. */
    double measuredQos = 0.0;

    /** Mean job size of the closed epoch, seconds at f = 1; 0 when the
     * epoch saw no arrivals. */
    double meanJobSize = 0.0;

    /** Whether the closed epoch completed any jobs (a QoS statistic
     * exists). False on the first boundary and across idle epochs. */
    bool hasMeasurement = false;

    /** The policy actually in force during the closed epoch (includes
     * any over-provisioning boost). */
    Policy applied;
};

/**
 * One per-epoch policy decision mechanism. Stateful deciders (the
 * feedback controller) carry estimator state across decide() calls;
 * reset() restores the freshly constructed state so one instance can
 * drive independent runs back to back.
 *
 * Thread-safety contract (same as PolicyManager::selectFromLog): one
 * decider per concurrent control loop; calls on one instance are
 * never made concurrently.
 */
class EpochDecider
{
  public:
    virtual ~EpochDecider() = default;

    /** Whether decide() consumes the rescaled job log. When false the
     * runtime skips log collection and construction entirely — the
     * whole point of the O(1) path. */
    virtual bool needsLog() const = 0;

    /**
     * Decide the policy for the upcoming epoch.
     *
     * @param observation Scalar measurements of the closed epoch.
     * @param log The history rescaled to the predicted load, at least
     *        two jobs over a positive span (empty when needsLog() is
     *        false).
     */
    virtual PolicyDecision decide(const EpochObservation &observation,
                                  const PreparedLog &log) = 0;

    /** Restore the freshly constructed decision state. */
    virtual void reset() = 0;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_EPOCH_DECIDER_HH
