/**
 * @file
 * The policy manager (paper Section 5.1).
 *
 * Given a statistical description of the current workload — either an
 * empirical job log (SleepScale proper) or (λ, µ) rates (the idealized
 * model) — characterize every candidate (frequency, sleep plan) pair and
 * return the one that minimizes average power subject to the QoS
 * constraint. Log-driven selection is delegated to the batched
 * PolicyEvalEngine (eval_engine.hh), which caches the materialized policy
 * space and evaluates candidates on reusable, optionally parallel
 * simulation arenas; closed-form selection evaluates the M/M/1 model
 * directly.
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
     * @param options Candidate-search knobs (fan-out width, pruning).
     */
    PolicyManager(const PlatformModel &platform, ServiceScaling scaling,
                  PolicySpace space, QosConstraint qos,
                  EvalEngineOptions options = {});

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
     * caches and arenas do mutate, so concurrent calls on one manager
     * are not safe — use one manager per concurrent controller.
     *
     * @param log Arrival-ordered jobs; needs at least two jobs.
     */
    PolicyDecision selectFromLog(const std::vector<Job> &log) const;

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
                          const std::vector<Job> &log) override;

    void reset() override;

    /** The QoS constraint in force. */
    const QosConstraint &qos() const { return _engine->qos(); }

    /** The candidate space. */
    const PolicySpace &space() const { return _engine->space(); }

    /** The evaluation engine backing selectFromLog() (read-only; the
     * manager is the only mutation path, preserving the const barrier
     * the runtimes expose). */
    const PolicyEvalEngine &engine() const { return *_engine; }

    /** Offered load of a job log: total demand / spanned time. */
    static double logOfferedLoad(const std::vector<Job> &log);

    /** Mean job size of a log, seconds at f = 1. */
    static double logMeanSize(const std::vector<Job> &log);

  private:
    const PlatformModel &_platform;
    ServiceScaling _scaling;

    /** Owned through a pointer so logically-const selections can drive
     * the engine's mutable caches. */
    std::unique_ptr<PolicyEvalEngine> _engine;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_POLICY_MANAGER_HH
