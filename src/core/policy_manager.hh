/**
 * @file
 * The policy manager (paper Section 5.1).
 *
 * Given a statistical description of the current workload — either an
 * empirical job log (SleepScale proper) or (λ, µ) rates (the idealized
 * model) — characterize every candidate (frequency, sleep plan) pair and
 * return the one that minimizes average power subject to the QoS
 * constraint. Both selections are delegated to the batched
 * PolicyEvalEngine (eval_engine.hh): log-driven selection replays the
 * log through the engine's cached policy space in blocks, optionally in
 * parallel; closed-form selection evaluates the M/M/1 model; one
 * reduction picks both winners.
 */

#ifndef SLEEPSCALE_CORE_POLICY_MANAGER_HH
#define SLEEPSCALE_CORE_POLICY_MANAGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/epoch_decider.hh"
#include "core/eval_engine.hh"
#include "core/policy_space.hh"
#include "core/qos.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "workload/job.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * Searches a PolicySpace for the minimum-power QoS-feasible policy.
 *
 * The search-based EpochDecider: decide() delegates to selectFromLog()
 * and ignores the scalar observation, so the runtimes drive the
 * search path and the O(1) controller (control/controller_manager.hh)
 * through one interface.
 */
class PolicyManager : public EpochDecider
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the manager).
     * @param scaling Service-time scaling law of the hosted workload.
     * @param space Candidate plans and frequencies.
     * @param qos Constraint candidate policies must satisfy.
     * @param threads Candidate-search fan-out width (see
     *        PolicyEvalEngine).
     */
    PolicyManager(const PlatformModel &platform, ServiceScaling scaling,
                  PolicySpace space, QosConstraint qos,
                  std::size_t threads = 1);

    /**
     * Select the best policy for an empirical job log (SleepScale mode).
     *
     * Every stable candidate is characterized by simulating the log
     * (paper Algorithm 1); unstable frequencies (offered load at or above
     * the effective service rate) are skipped, mirroring the paper's
     * f >= ρ + 0.01 floor.
     *
     * const in the logical sense: the decision depends only on the log
     * and the construction-time configuration. The engine's internal
     * caches and scratch state do mutate, so concurrent calls on one
     * manager are not safe — use one manager per concurrent controller.
     *
     * @param log Prepared job log; needs at least two jobs and a
     *        positive span.
     */
    PolicyDecision selectFromLog(const PreparedLog &log) const;

    /** selectFromLog() over PreparedLog::fromJobs(jobs). */
    PolicyDecision selectFromLog(const std::vector<Job> &jobs) const;

    /**
     * Select the best policy under the idealized model (closed forms, no
     * simulation) — the paper's Figure 6 solid lines.
     *
     * @param lambda Poisson arrival rate, jobs/s.
     * @param mu Maximum service rate, jobs/s at f = 1.
     */
    PolicyDecision selectAnalytic(double lambda, double mu) const;

    bool needsLog() const override;

    PolicyDecision decide(const EpochObservation &observation,
                          const PreparedLog &log) override;

    void reset() override;

    /** The QoS constraint in force. */
    const QosConstraint &qos() const { return _engine->qos(); }

    /** The evaluation engine backing both selections (read-only; the
     * manager is the only mutation path, preserving the const barrier
     * the runtimes expose). */
    const PolicyEvalEngine &engine() const { return *_engine; }

  private:
    /** Owned through a pointer so logically-const selections can drive
     * the engine's mutable caches. */
    std::unique_ptr<PolicyEvalEngine> _engine;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_POLICY_MANAGER_HH
