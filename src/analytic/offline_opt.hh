/**
 * @file
 * Offline-optimal speed-scaling + sleep-state oracle (regret baseline).
 *
 * Given a *completed* job log, this solver computes the minimum energy
 * any FCFS work-conserving schedule could have spent on the platform's
 * frequency grid and sleep-state table, via the dynamic program behind
 * the Antoniadis-Huang-Ott FPTAS for speed scaling with a sleep state
 * (PAPERS.md). The value is a certified lower bound on the energy of
 * every policy-management strategy the simulator can run over the same
 * log, which turns relative comparisons ("SS beats fixed-frequency")
 * into absolute ones ("SS is within X% of offline optimal") — the
 * `regret_pct` extra of ScenarioResult and docs/OFFLINE_OPT.md.
 *
 * Relaxations that make the bound valid against ServerSim's exact
 * accounting (wake time charged at active power; idle billed by the
 * descent's prefix sums; books closed at the horizon):
 *
 *  - per idle gap the oracle pays min_i [Pmin_i * gap + w_i * A], the
 *    cheapest single state; a single state dominates every descent
 *    because stage powers strictly decrease with depth;
 *  - Pmin_i relaxes the frequency-dependent shallow-state powers to
 *    their minimum over the frequency grid;
 *  - wake-up latency costs energy (w_i at the next job's active power,
 *    exactly what the simulator bills) but does not delay the job;
 *  - the trailing gap up to the horizon is billed at the deepest
 *    relaxed power with no wake.
 *
 * Two solvers share the transition function. solveExact() keeps the
 * exact Pareto frontier of (completion time, energy) states — viable
 * for small logs only, and the oracle's own oracle in the test suite.
 * solve() is the FPTAS: completion times are rounded *up* to a nested
 * delta-grid, so its value can only drop below the exact optimum
 * (rounding up shortens gaps), keeping it a true lower bound; each
 * state also carries the un-rounded cost of its decision path, whose
 * minimum is an achievable upper bound, and the grid is refined until
 * the certified bracket is within the requested epsilon.
 */

#ifndef SLEEPSCALE_ANALYTIC_OFFLINE_OPT_HH
#define SLEEPSCALE_ANALYTIC_OFFLINE_OPT_HH

#include <array>
#include <cstddef>
#include <vector>

#include "power/low_power_state.hh"
#include "power/platform_model.hh"
#include "workload/job.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * A completed job log handed to the offline solver, plus the
 * accounting horizon.
 */
struct OfflineOptInstance
{
    /** Jobs in arrival order (non-decreasing finite arrivals, finite
     * sizes >= 0). */
    std::vector<Job> jobs;

    /** Accounting horizon in seconds (finite, >= the last arrival);
     * idle is billed through it, mirroring SleepScaleRuntime's
     * bookkeeping. */
    double horizon = 0.0;

    /**
     * Validate and build an instance; fatal() on non-finite, negative
     * or out-of-order arrivals, non-finite or negative sizes, or a
     * non-finite horizon or one before the last arrival.
     */
    static OfflineOptInstance fromJobs(std::vector<Job> jobs,
                                       double horizon);
};

/** Tuning knobs of the offline solver. */
struct OfflineOptOptions
{
    /** Frequency grid the oracle may run jobs at. Empty selects
     * PolicySpace::standard()'s grid (the searched candidate set). */
    std::vector<double> frequencies;

    /** Relative accuracy target of solve(): the certified upper/lower
     * bracket is refined until upper <= (1 + epsilon) * lower. */
    double epsilon = 0.05;

    /** FPTAS frontier cap per job; refinement stops (with an honest,
     * larger effective epsilon) rather than exceed it. */
    std::size_t maxStates = 4096;

    /** Exact-solver state cap; fatal() past it (use solve() instead). */
    std::size_t maxExactStates = 200000;
};

/** Outcome of an offline-optimal solve. */
struct OfflineOptResult
{
    /** Oracle energy in joules. For solve() this is the *certified
     * lower bound* V_delta <= V_exact; for solveExact() the optimum. */
    double energy = 0.0;

    /** Achievable schedule energy bracketing the optimum from above
     * (solveExact(): equal to energy). */
    double upperBound = 0.0;

    /** Accounting horizon the energy integrates over, seconds. */
    double elapsed = 0.0;

    /** Requested epsilon (0 for solveExact()). */
    double epsilon = 0.0;

    /** Certified bracket width actually achieved:
     * upperBound / energy - 1 (0 when energy is 0). */
    double epsilonEffective = 0.0;

    /** Peak DP frontier size (diagnostics). */
    std::size_t frontierPeak = 0;

    /** Times the FPTAS locally coarsened its grid to respect
     * maxStates (0 = the requested resolution held throughout;
     * coarsening widens epsilonEffective but keeps the bound valid). */
    std::size_t coarsenings = 0;

    /** Total energy debt (joules) subtracted from the lower bound to
     * pay for merging almost-dominated states on wide frontiers; 0
     * means the reported energy is the un-merged grid optimum. */
    double mergeDebt = 0.0;

    /** Per-job chosen frequencies (solveExact() only; empty from
     * solve(), which does not keep back-pointers). */
    std::vector<double> jobFrequencies;

    /** Per-job state of the idle gap closed by that job's arrival
     * (solveExact() only; C0(i)S0(i) when the arrival queued). */
    std::vector<LowPowerState> gapStates;

    /** Mean power of the oracle schedule, watts. */
    double avgPower() const
    {
        return elapsed > 0.0 ? energy / elapsed : 0.0;
    }
};

/**
 * Offline-optimal solver bound to a platform and a service scaling
 * law (the same pair a ServerSim run is configured with).
 */
class OfflineOptimal
{
  public:
    /**
     * @param platform Power model (copied; temporaries are fine).
     * @param scaling Service-time dependence on frequency.
     * @param options Solver knobs (grid, epsilon, state caps).
     */
    OfflineOptimal(const PlatformModel &platform, ServiceScaling scaling,
                   OfflineOptOptions options = {});

    /**
     * FPTAS solve: returns a certified lower bound on the offline
     * optimum with upperBound <= (1 + epsilon) * energy whenever the
     * frontier cap allows (epsilonEffective reports the achieved
     * bracket either way).
     */
    OfflineOptResult solve(const OfflineOptInstance &instance) const;

    /**
     * Exact Pareto-frontier solve; exponential worst case, fatal()
     * past maxExactStates. Intended for small logs (tests, debugging)
     * and as the reference the FPTAS is validated against.
     */
    OfflineOptResult solveExact(const OfflineOptInstance &instance) const;

    /**
     * Cheapest way to bridge an idle gap that ends in a wake-up:
     * min over states of Pmin_i * gap + w_i * next_active_power.
     *
     * @param gap Idle gap length, seconds (>= 0).
     * @param next_active_power Active power of the job ending the gap.
     */
    double gapCost(double gap, double next_active_power) const;

    /** The state attaining gapCost() (shallowest on ties). */
    LowPowerState gapState(double gap, double next_active_power) const;

    /** Relaxed (grid-minimum) idle power of one state, watts. */
    double relaxedIdlePower(LowPowerState state) const;

    /** Resolved frequency grid (ascending). */
    const std::vector<double> &frequencies() const { return _freqs; }

    /** Underlying platform. */
    const PlatformModel &platform() const { return _platform; }

    /** Service scaling law in use. */
    ServiceScaling scaling() const { return _scaling; }

  private:
    /** One precomputed (service time, busy energy) per frequency. */
    struct JobCosts
    {
        std::vector<double> service;    ///< Seconds per grid entry.
        std::vector<double> busyEnergy; ///< Joules per grid entry.
        double minBusyEnergy;           ///< min over busyEnergy.
        double minService;              ///< min over service.
    };

    // By value: gapCost()/gapState() read wake latencies at solve
    // time, so a stored reference would dangle when callers construct
    // the solver from a temporary model (as the benches do).
    PlatformModel _platform;
    ServiceScaling _scaling;
    OfflineOptOptions _options;
    std::vector<double> _freqs;        ///< Sorted, deduplicated grid.
    std::vector<double> _activePower;  ///< activePower per grid entry.
    std::array<double, numLowPowerStates> _relaxedIdle{};
    double _idleFloor = 0.0; ///< min over states of relaxed power.
    double _idleCeil = 0.0;  ///< max over states of relaxed power.

    /** Greedy one-pass schedule: an achievable energy (upper bound)
     * plus its idle-gap count, which calibrates the FPTAS seed grid
     * (rounding error only materializes at gaps). */
    struct GreedyBound
    {
        double energy;    ///< Achievable schedule energy, joules.
        std::size_t gaps; ///< Idle gaps the greedy schedule opened.
    };

    JobCosts jobCosts(const Job &job) const;
    GreedyBound greedyUpperBound(const OfflineOptInstance &instance,
                                 const std::vector<JobCosts> &costs) const;

    /** One rounded-grid DP pass at resolution delta; coarsens locally
     * when the frontier cap binds. merge_eta is the per-step energy
     * slack spent merging almost-dominated states on wide frontiers;
     * the accumulated debt is subtracted from the reported lower bound
     * so it stays certified. When allow_abort is set and the cap
     * keeps binding, the pass bails out early (energy = -infinity
     * marks the aborted result). */
    OfflineOptResult fptasPass(const OfflineOptInstance &instance,
                               const std::vector<JobCosts> &costs,
                               double delta, double merge_eta,
                               double upper_bound, bool allow_abort,
                               std::size_t max_states) const;
};

} // namespace sleepscale

#endif // SLEEPSCALE_ANALYTIC_OFFLINE_OPT_HH
