/**
 * @file
 * The types of a SleepScale runtime run (paper Sections 5.2 and 6):
 * the knobs of one configuration (RuntimeConfig), the per-epoch record
 * of what was decided and what happened (EpochReport), and the outcome
 * of a single-server run (RuntimeResult).
 *
 * The epoch loop itself lives in farm/farm_runtime.hh: FarmRuntime runs
 * it, and SleepScaleRuntime, the paper's single-server runtime, is a
 * one-server farm.
 */

#ifndef SLEEPSCALE_CORE_RUNTIME_HH
#define SLEEPSCALE_CORE_RUNTIME_HH

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "control/controller_config.hh"
#include "core/eval_engine.hh"
#include "core/policy_space.hh"
#include "core/qos.hh"
#include "sim/policy.hh"
#include "sim/sim_stats.hh"
#include "util/csv.hh"

namespace sleepscale {

/** Knobs of one runtime configuration. */
struct RuntimeConfig
{
    /** Policy update interval T, minutes (paper: 1-15). */
    unsigned epochMinutes = 5;

    /** Over-provisioning factor α (paper: 0 or 0.35). */
    double overProvision = 0.0;

    /** Peak design utilization ρ_b anchoring the QoS budget. */
    double rhoB = 0.8;

    /** Which response-time statistic the QoS bounds. */
    QosMetric qosMetric = QosMetric::MeanResponse;

    /** Candidate policies for the manager. */
    PolicySpace space = PolicySpace::standard();

    /** Candidate-search engine knobs: fan-out width and pruned mode
     * (see EvalEngineOptions). Any setting yields decisions identical
     * to the serial exhaustive search. */
    EvalEngineOptions search;

    /** Cap on the evaluation-log length; longer logs keep only the most
     * recent jobs (Section 5.2.1: average behaviour from the recent past
     * suffices, and the cap bounds the per-epoch decision cost). */
    std::size_t evalLogCap = 4000;

    /** How many past epochs of job events feed the evaluation log
     * (Section 5.2.1 logs "previous epochs"; more history smooths the
     * characterization when epochs are short). */
    std::size_t historyEpochs = 3;

    /** When set, decide per epoch with the O(1) feedback controller
     * (control/controller_manager.hh, strategy "poet") instead of the
     * candidate search; the search knobs above are then unused. */
    std::optional<ControllerConfig> controller;

    /** Record per-epoch decision wall time into
     * EpochReport::decisionMicros. Telemetry only — decisions and
     * simulated results are bit-identical either way — and off by
     * default so result structs stay time-free. */
    bool recordDecisionTime = false;

    /** When set, skip the policy manager entirely and run this policy
     * for the whole trace (race-to-halt baselines). */
    std::optional<Policy> fixedPolicy;

    /** Policy in force before the first decision. */
    Policy initialPolicy{1.0,
                         SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
};

/** Per-epoch record of what the runtime decided and what happened. */
struct EpochReport
{
    std::size_t index = 0;          ///< Epoch number.
    double startTime = 0.0;         ///< Seconds since trace start.
    double predictedUtilization = 0.0;
    /** Offered load over the epoch's arrival span (the trace end cuts
     * the last epoch short); per-server view in farms. */
    double measuredUtilization = 0.0;
    Policy policy;                  ///< Policy run during the epoch.
    bool feasible = false;          ///< Manager found a QoS-feasible policy.
    bool boosted = false;           ///< Over-provisioning raised f.
    bool decided = false;           ///< False if the log was too thin.
    /** The controller fell back to the safe fixed policy this epoch
     * (fault-injected farms only; see docs/FAULTS.md). */
    bool degraded = false;
    /** Wall time the epoch's decision took, µs (recordDecisionTime
     * runs only; 0 otherwise). */
    double decisionMicros = 0.0;
    SimStats stats;                 ///< Epoch-windowed metrics.
};

/** Aggregate outcome of one single-server run (SleepScaleRuntime). */
struct RuntimeResult
{
    std::vector<EpochReport> epochs;
    SimStats total;               ///< Whole-run merged statistics.
    QosConstraint qos = QosConstraint::meanBudget(1.0);

    /** Whole-run mean response time, seconds. */
    double meanResponse() const { return total.meanResponse(); }

    /** Whole-run 95th-percentile response time, seconds. */
    double p95Response() const
    {
        return total.responsePercentile(95.0);
    }

    /** Whole-run average power, watts. */
    double avgPower() const { return total.avgPower(); }

    /** Whether the whole-run QoS statistic met its budget. */
    bool withinBudget() const { return qos.satisfiedBy(total); }

    /**
     * Fraction of decided epochs whose selected plan bottoms out in each
     * low-power state (paper Figure 10).
     */
    std::array<double, numLowPowerStates> stateSelectionFractions() const;
};

/**
 * Flatten a runtime result into a per-epoch CSV table (start time,
 * predicted/measured utilization, chosen frequency and state depth,
 * responses, power) for offline plotting.
 */
CsvTable epochsToCsv(const RuntimeResult &result);

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_RUNTIME_HH
