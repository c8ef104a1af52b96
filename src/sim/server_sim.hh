/**
 * @file
 * The FCFS single-server simulation core (paper Algorithm 1, generalized).
 *
 * ServerSim implements the paper's operation model exactly: FCFS service,
 * DVFS-scaled service times, arrival-triggered wake-up with the latency of
 * whatever low-power stage the descent had reached, and wake-up energy
 * charged at active power. Instead of a general event calendar it exploits
 * the FCFS structure: the entire server state is the time the queue next
 * empties, so each arrival is processed in O(plan stages) and energy is
 * integrated piecewise-analytically between events.
 *
 * ServerSim itself is the continuous form: windowed statistics
 * harvesting (for per-epoch reporting) and mid-run policy switches with
 * queue backlog carried across the switch (needed by the runtime, where a
 * mispredicted epoch leaves a backlog that must propagate into the next
 * one). The policy search instead scores candidates with replayBlock(),
 * the same FCFS accounting reduced to what a decision reads (average
 * power, mean or tail response) and run for replayWidth (sixteen)
 * candidates side by side over a PreparedLog. Per job a lane adds up
 * only its idle time and its responses, with no divide and no blend;
 * its joules follow once, after the log, from its idle time, its span
 * and its powers. That makes candidate-policy evaluation cheap enough
 * to run hundreds of times per epoch, which is the premise of
 * SleepScale's runtime policy manager.
 */

#ifndef SLEEPSCALE_SIM_SERVER_SIM_HH
#define SLEEPSCALE_SIM_SERVER_SIM_HH

#include <cmath>
#include <span>
#include <vector>

#include "power/platform_model.hh"
#include "sim/pending_queue.hh"
#include "sim/policy.hh"
#include "sim/sim_stats.hh"
#include "sim/sleep_plan.hh"
#include "util/error.hh"
#include "util/quantile_histogram.hh"
#include "workload/job.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * A job log preprocessed for repeated candidate evaluation.
 *
 * Splits the jobs into structure-of-arrays form (replayBlock() streams
 * both arrays once per block of candidates) and keeps the total demand,
 * so offered load and mean size are O(1). Every job is checked as it is
 * appended — finite, non-negative, arrival-ordered — so the replay
 * kernel runs check-free. A log can be cleared and refilled in place:
 * the runtime rescales each decision's history into one reused log,
 * which then allocates nothing once its arrays have grown.
 */
struct PreparedLog
{
    std::vector<double> arrival; ///< Arrival times, non-decreasing.
    std::vector<double> size;    ///< Job sizes (seconds at f = 1).
    double demand = 0.0; ///< size[0] + ... + size[n-1], summed in order.

    /** Preprocess an arrival-ordered job list (needs >= 1 job, every
     * arrival and size finite and >= 0; ConfigError otherwise). */
    static PreparedLog fromJobs(const std::vector<Job> &jobs);

    /** Drop every job, keeping the arrays' capacity. */
    void clear();

    /**
     * Append the next job: the one check of the log's invariants, which
     * fromJobs() and every in-place writer share. ConfigError unless
     * the arrival and the size are finite and >= 0 and the arrival is
     * no earlier than the last one. Adds the size to the demand.
     * Inline, so a writer's per-job loop keeps only the checks' four
     * predictable branches next to its own arithmetic.
     */
    void append(double job_arrival, double job_size)
    {
        // Every comparison below is false for NaN, so finiteness is
        // checked first and explicitly.
        fatalIf(!std::isfinite(job_arrival) || !std::isfinite(job_size),
                "PreparedLog: arrival times and job sizes must be finite");
        fatalIf(job_arrival < (arrival.empty() ? 0.0 : arrival.back()),
                "PreparedLog: arrivals must be non-decreasing");
        fatalIf(job_arrival < 0.0, "PreparedLog: negative arrival time");
        fatalIf(job_size < 0.0, "PreparedLog: negative job size");
        demand += job_size;
        arrival.push_back(job_arrival);
        size.push_back(job_size);
    }

    /** Number of jobs. */
    std::size_t count() const { return arrival.size(); }

    /** Total service demand, seconds at f = 1. */
    double totalDemand() const { return demand; }

    /** Mean job size, seconds at f = 1. */
    double meanSize() const
    {
        return totalDemand() / static_cast<double>(count());
    }

    /** Offered load: total demand over the spanned time (needs >= 2
     * jobs and a positive span; fatal() otherwise). */
    double offeredLoad() const;
};

/** Candidates one replayBlock() call characterizes side by side:
 * sixteen, in one pass of its AVX2 body or two passes of eight lanes of
 * its SSE2 body (sim/replay_kernel.hh). */
inline constexpr std::size_t replayWidth = 16;

/** One candidate policy of a replay block, bound to its frequency. */
struct ReplayCandidate
{
    /** The candidate's plan materialized at its frequency (not owned). */
    const MaterializedPlan *plan = nullptr;

    /** Service-time multiplier at the frequency (ServiceScaling). */
    double serviceFactor = 1.0;

    /** Busy power at the frequency, watts. */
    double activePower = 0.0;

    /** Bind `plan` (materialized at `frequency`) to its frequency's
     * service factor and busy power. */
    static ReplayCandidate of(const MaterializedPlan &plan,
                              const PlatformModel &platform,
                              ServiceScaling scaling, double frequency);
};

/** What replayBlock() reports for one candidate. */
struct ReplayOutcome
{
    /** Energy over [0, last departure], divided by that span; 0 when
     * the span is not positive. Equals SimStats::avgPower() to
     * rounding. */
    double avgPower = 0.0;

    /** Mean response time, seconds: the responses summed in job order
     * over the job count. Equals SimStats::meanResponse(). */
    double meanResponse = 0.0;
};

/**
 * Characterize up to replayWidth candidates in one pass over a log.
 *
 * Each lane runs the paper's Algorithm 1 from an idle server at t = 0
 * through the last departure — evaluatePolicy()'s accounting, bit for
 * bit in mean response and tail, to rounding in power — but keeps only
 * what a policy decision reads. The lanes are independent dependency
 * chains in SIMD vectors, so they overlap in the pipeline; per job a
 * lane takes a maximum for its service start, adds the gap before it
 * to a running idle time, masks its wake-up latency to idle arrivals
 * and adds its response to a running sum (no divide, no blend). After
 * the log a lane's joules are its busy power times its busy time (span
 * minus idle time) plus its idle energy: idle power times idle time for
 * a one-stage plan, or the per-gap descent energies a multi-stage plan
 * adds up in the loop. The formula follows the lane's own plan, never
 * its neighbours', so a lane's outcome does not depend on the other
 * lanes or on its position in the block. The vectors are 32 bytes
 * (AVX2) where the CPU
 * has AVX2 and 16 bytes (SSE2) elsewhere, chosen once at the first
 * call; both bodies give bit-identical outcomes
 * (sim/replay_kernel.hh). Short blocks are padded internally;
 * padding lanes are computed but never reported. Lanes may mix plans
 * with different stage counts. Allocates nothing beyond the first
 * sample of each tail histogram.
 *
 * @param log Preprocessed job log (at least one job).
 * @param lanes 1 to replayWidth candidates.
 * @param outcomes One slot per lane, overwritten.
 * @param tails Empty to skip tail recording, else one histogram per lane
 *        (configured like SimStats::responseHistogram), each reset and
 *        then fed that lane's response times in job order.
 */
void replayBlock(const PreparedLog &log,
                 std::span<const ReplayCandidate> lanes,
                 std::span<ReplayOutcome> outcomes,
                 std::span<QuantileHistogram> tails = {});

/** Continuous FCFS single-server simulator with DVFS and sleep states. */
class ServerSim
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the sim).
     * @param scaling Service-time dependence on frequency.
     * @param initial Policy in force from t = 0.
     *
     * The simulation starts at t = 0 with an empty queue; the server
     * begins its sleep descent immediately, mirroring Algorithm 1 where
     * the "departure of job 0" is time 0.
     */
    ServerSim(const PlatformModel &platform, ServiceScaling scaling,
              const Policy &initial);

    /**
     * Offer the next arrival. Arrivals must be fed in non-decreasing
     * time order, and never earlier than a time already passed to
     * advanceTo().
     */
    void offerJob(const Job &job);

    /**
     * Integrate power and flush departures up to time t (t must be >=
     * any previously accounted time). Call at window boundaries before
     * harvesting or switching policies.
     */
    void advanceTo(double t);

    /**
     * Switch the operating policy at time t.
     *
     * The new frequency applies to jobs that *start service* after the
     * switch; jobs already admitted keep their committed service times
     * (busy power from t onward uses the new frequency). If the server
     * is idle, the descent clock is preserved and the occupied stage is
     * re-derived under the new plan.
     */
    void setPolicy(const Policy &policy, double t);

    /** Policy currently in force. */
    const Policy &policy() const { return _policy; }

    /**
     * Return the statistics accumulated since the last harvest (or since
     * construction) and start a new window at the current accounted time.
     * Response times are attributed to the window containing the job's
     * departure.
     */
    SimStats harvestWindow();

    /** Time at which the server's queue next empties. */
    double nextFreeTime() const { return _nextFree; }

    /** Seconds of committed work left at time t (0 when idle). */
    double backlog(double t) const;

    /**
     * Record per-completion response samples in the percentile
     * histogram (default on). Mean-based QoS never reads the tail, so
     * large farms turn this off: no histogram buckets are ever
     * allocated and percentile readouts report 0. Streaming response
     * moments (mean, min, max, Cv) are always recorded.
     */
    void setRecordTail(bool record) { _recordTail = record; }

  private:
    const PlatformModel &_platform;
    ServiceScaling _scaling;
    MaterializedPlan _plan;
    double _activePower;   ///< Cached activePower(policy.frequency).
    double _serviceFactor; ///< Cached _scaling.factor(policy.frequency).

    double _accountedUntil = 0.0; ///< Energy integrated up to here.
    double _nextFree = 0.0;       ///< Queue-empties time; idle start.
    bool _recordTail = true;      ///< Feed the percentile histogram.

    /** Departures awaiting window attribution (FCFS keeps this ordered
     * by departure time). */
    PendingQueue _pending;

    SimStats _window;

    /** Read only by policy(): offerJob() uses the cached fields above,
     * and a Policy holds its sleep plan inline, so keeping it last
     * keeps the per-job fields on the same cache lines. */
    Policy _policy;

    void integrateBusy(double from, double to);
    void integrateIdle(double from, double to);
    void accumulateIdle(double start, double end);
    void flushDepartures(double t);
};

/**
 * Result of evaluating one candidate policy over a job list
 * (the paper's Algorithm 1 driver).
 */
struct PolicyEvaluation
{
    Policy policy;  ///< The candidate evaluated.
    SimStats stats; ///< Its whole-run statistics.

    /** Mean response time, seconds. */
    double meanResponse() const { return stats.meanResponse(); }

    /** 95th-percentile response time, seconds. */
    double p95Response() const { return stats.responsePercentile(95.0); }

    /** Average power, watts. */
    double avgPower() const { return stats.avgPower(); }
};

/**
 * Evaluate a policy over a finite job sequence.
 *
 * Runs a fresh simulation from an idle server at t = 0 through the last
 * departure, exactly the paper's Section 4.1 methodology.
 *
 * @param platform Power model.
 * @param scaling Service-time scaling law.
 * @param policy Candidate (frequency, plan) pair.
 * @param jobs Arrival-ordered jobs.
 */
PolicyEvaluation evaluatePolicy(const PlatformModel &platform,
                                ServiceScaling scaling, const Policy &policy,
                                const std::vector<Job> &jobs);

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_SERVER_SIM_HH
