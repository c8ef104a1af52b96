/**
 * @file
 * Declarative experiment scenarios.
 *
 * A ScenarioSpec is a complete, engine-agnostic description of one
 * SleepScale experiment: which trace feeds which workload on which
 * platform, which policy-management strategy and predictor run, and
 * which engine executes it (single server, dispatched farm, or
 * multi-core package). Every component is named against its registry,
 * so specs serialize naturally into sweep grids, tables, and CSV rows,
 * and misspelled names fail fast listing the registered alternatives.
 *
 * Specs are plain structs: start from the defaults and set the fields
 * that differ.
 *
 *   ScenarioSpec spec;
 *   spec.label = "fig9";
 *   spec.workload = "dns";
 *   spec.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
 *   spec.strategy = "SS";
 *   spec.overProvision = 0.35;
 *   spec.seed = 99;
 *
 * validate() checks what only a scenario knows (component names, the
 * source, replications, the multicore fields) and hands every
 * loop-engine knob to the engine's own validator, validateFarmConfig()
 * on farmConfigOf(), so each knob has one range check. ExperimentRunner
 * (runner.hh) validates and executes specs and expands sweep grids.
 */

#ifndef SLEEPSCALE_EXPERIMENT_SCENARIO_HH
#define SLEEPSCALE_EXPERIMENT_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/qos.hh"
#include "power/low_power_state.hh"
#include "workload/utilization_trace.hh"

namespace sleepscale {

/** The loop engines' configuration (farm/farm_runtime.hh). */
struct FarmRuntimeConfig;

/** Which engine executes a scenario. */
enum class EngineKind
{
    SingleServer, ///< The paper's runtime: a one-server FarmRuntime.
    Farm,         ///< FarmRuntime: dispatched multi-server farm.
    Multicore,    ///< MulticoreSim: package-gated multi-core part.
};

/** Engine name for reports ("single", "farm", "multicore"). */
std::string toString(EngineKind kind);

/**
 * Declarative description of the utilization trace feeding a scenario.
 *
 * `kind` is "es" (synthetic email store), "fs" (synthetic file server),
 * "flat" (constant level, for controlled studies), or a path to a CSV
 * saved by UtilizationTrace::save().
 */
struct TraceSpec
{
    std::string kind = "es";           ///< Trace family or CSV path.
    unsigned days = 1;                 ///< Days synthesized (es/fs).
    std::uint64_t seed = 20140614;     ///< Synthesis seed (es/fs).
    unsigned windowStartHour = 0;      ///< Daily window start (incl.).
    unsigned windowEndHour = 24;       ///< Daily window end (excl.).
    double flatLevel = 0.2;            ///< Constant level (flat).
    std::size_t flatMinutes = 120;     ///< Trace length (flat).

    /** Materialize the trace this spec describes. */
    UtilizationTrace realize() const;

    /** Short printable form, e.g. "es[2,20)" or "flat(0.2)". */
    std::string label() const;
};

/**
 * One fully specified experiment. validate(), which ExperimentRunner
 * calls before it runs a spec, cross-checks every component name
 * against its registry and every knob against its range.
 */
struct ScenarioSpec
{
    std::string label;                  ///< Row label in reports.
    EngineKind engine = EngineKind::SingleServer; ///< Executing engine.

    std::string workload = "dns";       ///< Workload registry name.
    bool idealizedWorkload = false;     ///< Use spec.idealized().
    std::string platform = "xeon";      ///< Platform registry name.
    TraceSpec trace;                    ///< Utilization trace feed.

    // Job source (single-server and farm engines). Sources stream jobs
    // into the engines epoch by epoch — nothing is materialized.
    std::string source = "trace";       ///< Job-source registry name.
    double sourceUtilization = 0.3;     ///< "stationary"/"bursty" level.
    double sourceRateScale = 1.0;       ///< Extra arrival-rate factor.
    double burstRateFactor = 4.0;       ///< "bursty": in-burst factor.
    double burstMeanLength = 120.0;     ///< "bursty": episode mean, s.
    double burstMeanGap = 1800.0;       ///< "bursty": inter-episode, s.
    std::string replayPath;             ///< CSV job log ("replay" only).

    // Policy management (single-server and farm engines).
    std::string strategy = "SS";        ///< Strategy registry name.
    unsigned epochMinutes = 5;          ///< Update interval T.
    double overProvision = 0.35;        ///< α.
    double rhoB = 0.8;                  ///< ρ_b anchoring the QoS budget.
    QosMetric qosMetric = QosMetric::MeanResponse; ///< Bounded statistic.
    std::string predictor = "LC";       ///< Predictor registry name.
    std::size_t predictorHistory = 10;  ///< Predictor tap count p.
    std::size_t searchThreads = 1;      ///< Policy-search fan-out width.
    bool prunedSearch = false;          ///< Prune the frequency scan.

    // "poet" controller knobs (docs/CONTROL.md); ignored by the
    // search strategies.
    double controllerProcessNoise = 1e-4;   ///< Kalman Q (finite, > 0).
    double controllerMeasurementNoise = 1e-2; ///< Kalman R (finite, > 0).
    double controllerPole = 0.0;        ///< Xup integrator pole, [0, 1).
    unsigned controllerPeriod = 1;      ///< Control period, epochs (>= 1).

    /** Time each epoch decision (decision_us_* result extras). The
     * reading never feeds simulated state, so metrics stay
     * bit-identical whether or not it is enabled. */
    bool recordDecisionTime = false;

    // Farm engine.
    std::size_t farmSize = 4;           ///< Back-end server count.
    std::string dispatcher = "random";  ///< Dispatcher registry name.
    double packingSpillBacklog = 1.0;   ///< Packing spill threshold, s.
    /** "farm-wide" | "per-server" | "distributed". */
    std::string farmControl = "farm-wide";
    /** Per-server platform names: empty = homogeneous `platform`,
     * else one name per server (farmSize entries). A heterogeneous mix
     * needs farmControl "per-server" or "distributed". */
    std::vector<std::string> farmPlatforms;
    std::size_t decisionThreads = 0;    ///< Per-server decision fan-out.
    std::size_t farmShards = 1;         ///< Accounting shard width (0 = auto).
    bool tailHistograms = true;         ///< Per-completion tail histograms.

    // Fault injection (farm engine only; docs/FAULTS.md). "none"
    // reproduces the fault-free farm bit-for-bit.
    std::string faults = "none";        ///< Fault-source registry name.
    double mtbf = 4.0 * 3600.0;         ///< Mean time between failures, s.
    double mttr = 300.0;                ///< Mean time to repair, s.
    double retryBackoff = 1.0;          ///< Failover backoff base, s.
    double dropTimeout = 300.0;         ///< Failover drop deadline, s.

    // Multicore engine (fixed package policy over a stationary load).
    std::size_t cores = 4;              ///< Cores in the package.
    double frequency = 1.0;             ///< Shared DVFS factor.
    LowPowerState coreState = LowPowerState::C6S0Idle; ///< Idle descent.
    double packageSleepDelay = 1.0;     ///< Joint-idle S3 delay, s.
    double rho = 0.1;                   ///< Per-core offered load.
    std::size_t jobCount = 60000;       ///< Stationary job count.

    /** Master seed; every RNG the engines draw is derived from it. */
    std::uint64_t seed = 1;

    /**
     * Monte-Carlo replications of this scenario (>= 1). A replicated
     * run executes the scenario `replications` times under derived
     * per-replication seeds (replicationSeed(), replication.hh) and
     * reports mean / stddev / Student-t confidence intervals per
     * metric instead of a single-seed point estimate. The utilization
     * trace (TraceSpec.seed) is shared by all replications — the "day
     * shape" is part of the scenario; only the job-stream and dispatch
     * randomness varies. See docs/STATISTICS.md.
     */
    std::size_t replications = 1;

    /** Capture the per-epoch CSV in the result (single-server and farm
     * engines; a farm reports its farm-level epochs). */
    bool captureEpochs = false;

    /**
     * Solve the offline-optimal oracle over the run's completed job
     * log and report `offline_opt_energy` and `regret_pct` result
     * extras (single-server engine only; docs/OFFLINE_OPT.md). Under
     * replications the regret gets confidence intervals like any other
     * metric.
     */
    bool reportRegret = false;

    /** FPTAS accuracy knob of the regret oracle (> 0). */
    double optEpsilon = 0.05;

    /**
     * Cross-check every registry-keyed name and numeric range; fatal()
     * on the first mismatch, naming this scenario's label (and the
     * registered alternatives for an unknown name).
     */
    void validate() const;
};

/**
 * The FarmRuntime configuration of a single-server or farm scenario:
 * the one-server farm the paper's runtime runs on (singleServerFarm()),
 * widened to the spec's farm for the farm engine. fatal() on an
 * unknown strategy.
 */
FarmRuntimeConfig farmConfigOf(const ScenarioSpec &spec);

} // namespace sleepscale

#endif // SLEEPSCALE_EXPERIMENT_SCENARIO_HH
