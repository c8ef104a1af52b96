/**
 * @file
 * Multi-core package simulation (paper Section 7 future work).
 *
 * The single-server model treats the CPU as one unit. Real parts are
 * multi-core: each core has private C-states, while the deepest
 * platform state (S3) is *package-gated* — it is reachable only while
 * every core is idle, which couples the cores' idle periods. That
 * coupling is what makes multi-core power management more than N
 * independent SleepScale instances: per-core descents are exact as
 * before, but platform power switches between S0(a) (any core active),
 * an S0(i) descent, and S3 according to the joint idle interval.
 *
 * Model:
 *  - M identical cores; each runs FCFS with the DVFS-scaled service
 *    law; a dispatcher routes each arrival to a core.
 *  - Core power is the single-CPU model scaled by 1/M (active
 *    activeCoeff/M f^3; idle descent through the core plan with the
 *    same 1/M scaling). Each core still serves at rate µf, i.e. the
 *    package divides one power envelope across cores without dividing
 *    per-core performance — adequate for studying package gating and
 *    joint idleness, but absolute watts are not comparable across
 *    different core counts.
 *  - Platform power: s0Active while any core is busy; once the last
 *    core goes idle the platform drops to s0Idle and, after the
 *    configured package delay of *joint* idleness, to s3.
 *  - Wake-up: an arrival pays the maximum of its core's wake latency
 *    and the package wake latency (C6S3's) when the package reached S3.
 *
 * Energy integration stays exact: between arrivals, core busy/idle
 * breakpoints (departure horizons, descent thresholds) are merged and
 * integrated piecewise, exactly as in ServerSim.
 */

#ifndef SLEEPSCALE_MULTICORE_MULTICORE_SIM_HH
#define SLEEPSCALE_MULTICORE_MULTICORE_SIM_HH

#include <cstdint>
#include <vector>

#include "power/platform_model.hh"
#include "sim/pending_queue.hh"
#include "sim/policy.hh"
#include "sim/sim_stats.hh"
#include "sim/sleep_plan.hh"
#include "workload/job.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Per-package policy: frequency, per-core descent, package S3 delay. */
struct MulticorePolicy
{
    /** Shared DVFS factor (per-core DVFS is future work here too). */
    double frequency = 1.0;

    /** Sleep descent each idle core follows (core-private states). */
    SleepPlan corePlan =
        SleepPlan::immediate(LowPowerState::C6S0Idle);

    /**
     * Seconds of *joint* (all-core) idleness before the platform drops
     * from S0(i) to S3. Infinity disables package sleep.
     */
    double packageSleepDelay = 1.0;
};

/** Aggregate metrics of a multicore run. */
struct MulticoreStats
{
    double energy = 0.0;        ///< Joules, package + all cores.
    double elapsed = 0.0;       ///< Simulated span, seconds.
    double packageS3Time = 0.0; ///< Seconds the platform spent in S3.
    double packageIdleTime = 0.0; ///< Seconds in S0(i) (not S3).
    std::uint64_t completions = 0;  ///< Jobs completed.
    std::uint64_t packageWakes = 0; ///< Wakes that paid the S3 latency.
    OnlineStats response;           ///< Response-time moments, seconds.
    /** Response-time distribution, seconds (percentile queries). */
    QuantileHistogram responseHistogram;

    /** Average package power, watts. */
    double avgPower() const
    {
        return elapsed > 0.0 ? energy / elapsed : 0.0;
    }
};

/** M-core package with joint platform-state accounting. */
class MulticoreSim
{
  public:
    /**
     * @param platform Power model; CPU powers are split across cores.
     * @param scaling Service-time scaling law.
     * @param cores Number of cores (>= 1).
     * @param policy Initial package policy.
     */
    MulticoreSim(const PlatformModel &platform, ServiceScaling scaling,
                 std::size_t cores, const MulticorePolicy &policy);

    /** Number of cores. */
    std::size_t cores() const { return _nextFree.size(); }

    /**
     * Admit one arrival (non-decreasing times) on the least-backlogged
     * core (JSQ; ties to the lowest index).
     *
     * @return Index of the chosen core.
     */
    std::size_t offerJob(const Job &job);

    /** Integrate power up to time t. */
    void advanceTo(double t);

    /** Switch the package policy at time t. */
    void setPolicy(const MulticorePolicy &policy, double t);

    /** Statistics accumulated so far (call advanceTo first). */
    const MulticoreStats &stats() const { return _stats; }

    /** Time when the last core's queue empties. */
    double allFreeTime() const;

  private:
    const PlatformModel &_platform;
    ServiceScaling _scaling;
    MulticorePolicy _policy;
    MaterializedPlan _corePlan; ///< Powers scaled per-core.
    double _coreActivePower = 0.0;
    double _packageWake = 0.0;

    std::vector<double> _nextFree; ///< Per-core departure horizon.
    double _accountedUntil = 0.0;
    MulticoreStats _stats;
    PendingQueue _pending; ///< Departures awaiting attribution.

    void rebuildDerived();
    void integrate(double from, double to);
    double corePowerAt(std::size_t core, double t) const;
    void flushDepartures(double t);
};

/**
 * Evaluate a multicore policy over a job list (fresh package, run to
 * the last departure) — the multicore analogue of evaluatePolicy().
 * A view adapter over the streaming overload.
 */
MulticoreStats evaluateMulticorePolicy(const PlatformModel &platform,
                                       ServiceScaling scaling,
                                       std::size_t cores,
                                       const MulticorePolicy &policy,
                                       const std::vector<Job> &jobs);

/**
 * Streaming overload: pulls up to max_jobs arrivals from a source —
 * the package never holds the job list.
 */
MulticoreStats evaluateMulticorePolicy(const PlatformModel &platform,
                                       ServiceScaling scaling,
                                       std::size_t cores,
                                       const MulticorePolicy &policy,
                                       JobSource &source,
                                       std::size_t max_jobs);

} // namespace sleepscale

#endif // SLEEPSCALE_MULTICORE_MULTICORE_SIM_HH
