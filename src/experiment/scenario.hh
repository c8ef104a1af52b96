/**
 * @file
 * Declarative experiment scenarios.
 *
 * A ScenarioSpec is a complete description of one SleepScale
 * experiment: which trace feeds which workload on which platform,
 * which policy-management strategy and predictor run, and whether the
 * epoch loop runs one server or a dispatched farm. Every component is
 * named against its registry, so specs serialize naturally into sweep
 * grids, tables, and CSV rows, and misspelled names fail fast listing
 * the registered alternatives.
 *
 * Specs are plain structs: start from the defaults and set the fields
 * that differ. The epoch loop's knobs are the loop's own configuration
 * (`loop`, a FarmRuntimeConfig whose `perServer` is the RuntimeConfig),
 * not copies of it.
 *
 *   ScenarioSpec spec;
 *   spec.label = "fig9";
 *   spec.workload = "dns";
 *   spec.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
 *   spec.strategy = "SS";
 *   spec.loop.perServer.overProvision = 0.35;
 *   spec.seed = 99;
 *
 * validate() checks what only a scenario knows (component names,
 * replications, the engine a knob needs), builds a throwaway job
 * source over the realized trace so a bad source knob or trace fails
 * before anything runs, and hands every loop-engine knob to the
 * engine's own validator, validateFarmConfig() on farmConfigOf(), so
 * each knob has one range check. ExperimentRunner (runner.hh)
 * validates and executes specs and expands sweep grids.
 */

#ifndef SLEEPSCALE_EXPERIMENT_SCENARIO_HH
#define SLEEPSCALE_EXPERIMENT_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>

#include "farm/farm_runtime.hh"
#include "workload/job_source.hh"
#include "workload/utilization_trace.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Which farm a scenario's FarmRuntime runs. */
enum class EngineKind
{
    SingleServer, ///< The paper's runtime: a one-server FarmRuntime.
    Farm,         ///< FarmRuntime: dispatched multi-server farm.
};

/** Engine name for reports ("single", "farm"). */
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
 * calls once per spec before it runs, cross-checks every component
 * name against its registry and every knob against its range.
 */
struct ScenarioSpec
{
    std::string label;                  ///< Row label in reports.
    EngineKind engine = EngineKind::SingleServer; ///< Executing engine.

    std::string workload = "dns";       ///< Workload registry name.
    bool idealizedWorkload = false;     ///< Use spec.idealized().
    std::string platform = "xeon";      ///< Platform registry name.
    TraceSpec trace;                    ///< Utilization trace feed.

    // Job source. Sources stream jobs into the engine epoch by epoch —
    // nothing is materialized.
    std::string source = "trace";       ///< Job-source registry name.
    double sourceUtilization = 0.3;     ///< "stationary"/"bursty" level.
    double sourceRateScale = 1.0;       ///< Extra arrival-rate factor.
    double burstRateFactor = 4.0;       ///< "bursty": in-burst factor.
    double burstMeanLength = 120.0;     ///< "bursty": episode mean, s.
    double burstMeanGap = 1800.0;       ///< "bursty": inter-episode, s.
    std::string replayPath;             ///< CSV job log ("replay" only).

    // Policy management.
    std::string strategy = "SS";        ///< Strategy registry name.
    std::string predictor = "LC";       ///< Predictor registry name.

    /**
     * The epoch loop's configuration, handed to FarmRuntime by
     * farmConfigOf(): `perServer` holds the policy-management knobs
     * (T, α, ρ_b, QoS metric, log caps, the "poet" controller), the
     * rest the farm and its fault plane. The strategy is applied as a
     * patch over `perServer`, a single-server scenario runs on
     * singleServerFarm() and so ignores the farm knobs, and
     * dispatchSeed/faultSeed are always derived from `seed`. The
     * defaults are the loop's own, except α = 0.35, the paper's
     * over-provisioned runs.
     */
    FarmRuntimeConfig loop = [] {
        FarmRuntimeConfig config;
        config.perServer.overProvision = 0.35;
        return config;
    }();

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

    /** Capture the per-epoch CSV in the result (a farm reports its
     * farm-level epochs). */
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
 * The FarmRuntime configuration of a scenario: `spec.loop` with the
 * strategy patched over its `perServer` and the dispatch and fault
 * seeds derived from `spec.seed`; for the single-server engine, the
 * one-server farm the paper's runtime runs on (singleServerFarm())
 * around that patched `perServer`. fatal() on an unknown strategy.
 */
FarmRuntimeConfig farmConfigOf(const ScenarioSpec &spec);

/** The scenario's workload: the registered one, idealized when
 * `spec.idealizedWorkload` asks for it. */
WorkloadSpec workloadOf(const ScenarioSpec &spec);

/**
 * Build the job source of a scenario over `trace`. Engines pull from
 * it epoch by epoch — the stream is never materialized. The farm sees
 * farm-size times the per-server trace load; a replay log is taken
 * literally (its recorded stream IS the aggregate). fatal() on a bad
 * source knob.
 */
std::unique_ptr<JobSource> sourceOf(const ScenarioSpec &spec,
                                    const WorkloadSpec &workload,
                                    const UtilizationTrace &trace);

} // namespace sleepscale

#endif // SLEEPSCALE_EXPERIMENT_SCENARIO_HH
