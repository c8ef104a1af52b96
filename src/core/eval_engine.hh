/**
 * @file
 * The high-throughput policy-evaluation engine.
 *
 * SleepScale's runtime viability rests on the per-epoch candidate search
 * being negligible next to a minutes-long epoch (paper Sections 4.1 and
 * 5.1.1). The engine makes the search cheap through three mechanisms:
 *
 *  1. A MaterializedPlan cache: the (plan, frequency) cross product is
 *     materialized against the platform once at construction — the
 *     policy space is static, so per-epoch selections reuse it instead
 *     of re-binding every candidate every epoch.
 *  2. Block replay: candidates are packed into blocks of replayWidth
 *     and each block is characterized by one replayBlock() pass over a
 *     PreparedLog, so the candidates' independent dependency chains
 *     overlap in the pipeline. A lane's outcome does not depend on its
 *     block or lane position, and the kernel allocates nothing.
 *  3. Parallel block fan-out on a shared ThreadPool with outcomes
 *     stored by candidate index and reduced in index order, so a
 *     parallel selection bit-matches the serial one.
 *
 * Closed-form selection (selectAnalytic) fills the same outcome table
 * from the M/M/1 model instead of a replay, and both selections pick
 * their winner through one reduction.
 *
 * An engine instance is NOT thread-safe: it owns per-call scratch state.
 * Use one engine per concurrently running controller. Internally the
 * fan-out shares state without locks by construction — each lane owns
 * its replayWidth tail histograms exclusively for the whole
 * parallelFor, and outcomes land in a candidate-indexed table that is
 * only reduced (in index order) after the fan-out joins.
 * docs/CONCURRENCY.md documents the discipline; the TSan CI job and
 * tools/lint_determinism.py enforce it.
 */

#ifndef SLEEPSCALE_CORE_EVAL_ENGINE_HH
#define SLEEPSCALE_CORE_EVAL_ENGINE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/policy_space.hh"
#include "core/qos.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/quantile_histogram.hh"
#include "util/thread_pool.hh"
#include "workload/job.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Outcome of one policy selection. */
struct PolicyDecision
{
    /** The selected policy. */
    Policy policy;

    /** True if some candidate met the QoS constraint. When false the
     * returned policy is the best-effort (fastest) candidate. */
    bool feasible = false;

    /** Predicted average power of the selection, watts. */
    double predictedPower = 0.0;

    /** Predicted value of the constrained QoS metric, seconds. */
    double predictedMetric = 0.0;

    /** Candidates actually characterized (stable ones). */
    std::uint64_t evaluated = 0;
};

/** Batched, allocation-free searcher over a PolicySpace. */
class PolicyEvalEngine
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the engine).
     * @param scaling Service-time scaling law of the hosted workload.
     * @param space Candidate plans and frequencies.
     * @param qos Constraint candidate policies must satisfy.
     * @param threads Candidate fan-out width: 1 searches serially on
     *        the calling thread, N > 1 uses an N-lane pool, 0 uses the
     *        hardware concurrency. Any width returns bit-identical
     *        decisions.
     */
    PolicyEvalEngine(const PlatformModel &platform, ServiceScaling scaling,
                     PolicySpace space, QosConstraint qos,
                     std::size_t threads = 1);

    /**
     * Select the best policy for an empirical job log: every stable
     * candidate is characterized by replaying the log (paper
     * Algorithm 1); unstable frequencies are skipped, mirroring the
     * paper's f >= ρ + 0.01 floor.
     *
     * @param log Arrival-ordered jobs; needs at least two jobs.
     */
    PolicyDecision selectFromLog(const std::vector<Job> &log);

    /**
     * Select the best policy under the idealized M/M/1 model: every
     * stable candidate is characterized by its closed-form mean power
     * and QoS statistic (no simulation), then reduced exactly as
     * selectFromLog() reduces replayed outcomes.
     *
     * @param lambda Poisson arrival rate, jobs/s.
     * @param mu Maximum service rate, jobs/s at f = 1.
     */
    PolicyDecision selectAnalytic(double lambda, double mu);

    /** The candidate space. */
    const PolicySpace &space() const { return _space; }

    /** The QoS constraint in force. */
    const QosConstraint &qos() const { return _qos; }

    /** The cached materialization of plan `plan_idx` at frequency
     * `freq_idx` (indices into space().plans / space().frequencies). */
    const MaterializedPlan &materialized(std::size_t plan_idx,
                                         std::size_t freq_idx) const;

    /** Candidates characterized by log replay over the engine's
     * lifetime (closed-form selections are not counted). */
    std::uint64_t lifetimeEvaluations() const
    {
        return _lifetimeEvaluations;
    }

    /** Smallest stable frequency for an offered load ρ (the paper's
     * ρ + 0.01 floor, adjusted for the scaling exponent). */
    double minStableFrequency(double rho) const;

  private:
    /** Characterization of one candidate, stored by candidate index. */
    struct Outcome
    {
        double power = 0.0;     ///< Average power, watts.
        double metric = 0.0;    ///< The constrained QoS statistic, s.
        bool evaluated = false; ///< Stable, hence characterized.
    };

    const PlatformModel &_platform;
    ServiceScaling _scaling;
    PolicySpace _space;
    QosConstraint _qos;

    /** Plan-major (plan_idx * |frequencies| + freq_idx) cache of the
     * whole policy space, built once at construction. */
    std::vector<MaterializedPlan> _materialized;

    /** Response-tail histograms, replayWidth per pool lane (lane `i`
     * owns [i * replayWidth, (i + 1) * replayWidth)), configured like
     * SimStats::responseHistogram. Only tail-QoS searches feed them, so
     * mean-QoS engines never allocate their buckets. During a fan-out
     * lane `i`'s histograms are touched exclusively by lane `i`
     * (ThreadPool's lane index is stable for the whole parallelFor), so
     * they need no locks; the TSan CI job covers the discipline. */
    std::vector<QuantileHistogram> _tails;

    /** Shared fan-out pool (absent when threads == 1). */
    std::unique_ptr<ThreadPool> _pool;

    /** Per-call outcome table, reused across selections. Lanes write
     * disjoint candidate-indexed slots during the fan-out; reduce()
     * reads it only after parallelFor returns (which joins all lanes),
     * and walks it in index order so the winner is independent of the
     * pool width. */
    std::vector<Outcome> _outcomes;

    /** Per-call candidate list, reused across selections. */
    std::vector<std::uint32_t> _candidates;

    std::uint64_t _lifetimeEvaluations = 0;

    void evaluateBlock(std::span<const std::uint32_t> block,
                       const PreparedLog &log, std::size_t lane);
    PolicyDecision reduce() const;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_EVAL_ENGINE_HH
