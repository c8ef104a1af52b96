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
 * ScenarioBuilder is the fluent front door:
 *
 *   const ScenarioSpec spec = ScenarioBuilder("fig9")
 *       .workload("dns")
 *       .trace("es").traceDays(1).traceSeed(20140614).window(2, 20)
 *       .strategy("SS").epochMinutes(5).overProvision(0.35)
 *       .predictor("LC")
 *       .seed(99)
 *       .build();
 *
 * ExperimentRunner (runner.hh) executes specs and expands sweep grids.
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

/** Which engine executes a scenario. */
enum class EngineKind
{
    SingleServer, ///< SleepScaleRuntime: a one-server FarmRuntime.
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
 * One fully specified experiment. Construct through ScenarioBuilder;
 * validate() cross-checks every component name against its registry.
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
    std::string replayPath;             ///< "replay": CSV job log.

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
    double controllerProcessNoise = 1e-4;   ///< Kalman Q (> 0).
    double controllerMeasurementNoise = 1e-2; ///< Kalman R (> 0).
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
    /** Per-server platform names (empty = homogeneous `platform`; a
     * heterogeneous mix needs farmControl "per-server" or
     * "distributed"). */
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
     * per-replication seeds (ReplicationPlan::replicationSeed) and
     * reports mean / stddev / Student-t confidence intervals per
     * metric instead of a single-seed point estimate. The utilization
     * trace (TraceSpec.seed) is shared by all replications — the "day
     * shape" is part of the scenario; only the job-stream and dispatch
     * randomness varies. See docs/STATISTICS.md.
     */
    std::size_t replications = 1;

    /** Capture the per-epoch CSV in the result (single-server only). */
    bool captureEpochs = false;

    /**
     * Solve the offline-optimal oracle over the run's completed job
     * log and report `offline_opt_energy` and `regret_pct` result
     * extras (single-server engine only; docs/OFFLINE_OPT.md). Under
     * replications the regret inherits the PR 5 CI machinery like any
     * other metric.
     */
    bool reportRegret = false;

    /** FPTAS accuracy knob of the regret oracle (> 0). */
    double optEpsilon = 0.05;

    /**
     * Cross-check every registry-keyed name and numeric range; fatal()
     * with the registered alternatives on the first mismatch.
     */
    void validate() const;
};

/** Fluent construction of ScenarioSpecs. */
class ScenarioBuilder
{
  public:
    /** @param label Row label of the scenario under construction. */
    explicit ScenarioBuilder(std::string label);

    /** Resume building from an existing spec (sweep expansion). */
    static ScenarioBuilder from(const ScenarioSpec &spec);

    /** Executing engine (single server, farm, or multicore). */
    ScenarioBuilder &engine(EngineKind kind);
    /** Workload by registry name ("dns", "mail", "google"). */
    ScenarioBuilder &workload(const std::string &name);
    /** Replace the workload with its idealized (M/M/1) variant. */
    ScenarioBuilder &idealizedWorkload(bool on = true);
    /** Platform model by registry name ("xeon", "atom"). */
    ScenarioBuilder &platform(const std::string &name);

    /** Trace kind: "es", "fs", "flat", or a CSV path. */
    ScenarioBuilder &trace(const std::string &kind);
    /** Days of synthetic trace to generate (es/fs kinds). */
    ScenarioBuilder &traceDays(unsigned days);
    /** Synthesis seed of the es/fs trace generators. */
    ScenarioBuilder &traceSeed(std::uint64_t seed);
    /** Daily evaluation window [start, end) in hours. */
    ScenarioBuilder &window(unsigned start_hour, unsigned end_hour);
    /** Shortcut: a flat trace at `level` for `minutes` minutes. */
    ScenarioBuilder &flatTrace(double level, std::size_t minutes);

    /** Job source: "trace", "stationary", "bursty", "replay", or any
     * name registered in jobSourceRegistry(). */
    ScenarioBuilder &source(const std::string &name);
    /** Offered load of the stationary/bursty sources. */
    ScenarioBuilder &sourceUtilization(double level);
    /** Extra arrival-rate multiplier on top of the source. */
    ScenarioBuilder &sourceRateScale(double factor);
    /** Bursty-source episode shape (factor >= 1; seconds). */
    ScenarioBuilder &burstiness(double rate_factor, double mean_length,
                                double mean_gap);
    /** CSV job log for the replay source (implies source("replay")). */
    ScenarioBuilder &replayPath(const std::string &path);

    /** Strategy by registry name ("SS", "DVFS", "R2H(C6)", ...). */
    ScenarioBuilder &strategy(const std::string &name);
    /** Policy update interval T, minutes. */
    ScenarioBuilder &epochMinutes(unsigned minutes);
    /** Over-provisioning factor α (Section 5.2.3 guard band). */
    ScenarioBuilder &overProvision(double alpha);
    /** Peak design utilization ρ_b anchoring the QoS budget. */
    ScenarioBuilder &rhoB(double rho_b);
    /** Which response-time statistic the QoS budget bounds. */
    ScenarioBuilder &qosMetric(QosMetric metric);
    /** Predictor by registry name ("NP", "LMS", "LC", "Offline"). */
    ScenarioBuilder &predictor(const std::string &name);
    /** Predictor tap/history count p. */
    ScenarioBuilder &predictorHistory(std::size_t taps);
    /** Candidate-search fan-out width (1 = serial, 0 = hardware). */
    ScenarioBuilder &searchThreads(std::size_t threads);
    /** Binary-search the QoS feasibility boundary per plan. */
    ScenarioBuilder &prunedSearch(bool on = true);
    /** "poet" Kalman noise variances Q and R (both > 0). */
    ScenarioBuilder &controllerNoise(double process, double measurement);
    /** "poet" xup integrator pole, in [0, 1). */
    ScenarioBuilder &controllerPole(double pole);
    /** "poet" control period as a multiple of the epoch (>= 1). */
    ScenarioBuilder &controllerPeriod(unsigned epochs);
    /** Time each epoch decision (decision_us_* result extras). */
    ScenarioBuilder &recordDecisionTime(bool on = true);

    /** Number of back-end servers in the farm. */
    ScenarioBuilder &farmSize(std::size_t servers);
    /** Dispatcher by registry name ("random", "JSQ", "packing", ...). */
    ScenarioBuilder &dispatcher(const std::string &name);
    /** Packing-dispatcher spill threshold, seconds of backlog. */
    ScenarioBuilder &packingSpillBacklog(double seconds);
    /** Farm control mode: "farm-wide", "per-server", or
     * "distributed". */
    ScenarioBuilder &farmControl(const std::string &mode);
    /** One platform name per server (implies farmSize; a mixed list
     * needs farmControl("per-server") or "distributed"). */
    ScenarioBuilder &farmPlatforms(std::vector<std::string> names);
    /** Per-server epoch-decision fan-out width (0 = auto). */
    ScenarioBuilder &decisionThreads(std::size_t threads);
    /** Farm accounting shard width (1 = serial, 0 = auto-size). */
    ScenarioBuilder &farmShards(std::size_t shards);
    /** Toggle per-completion response-tail histograms (off for
     * 10k+-server scale runs; percentile outputs then read 0). */
    ScenarioBuilder &tailHistograms(bool on);

    /** Fault source by registry name ("none", "mtbf", "correlated",
     * "scripted"); see docs/FAULTS.md. */
    ScenarioBuilder &faults(const std::string &name);
    /** Mean time between failures / to repair per server, seconds. */
    ScenarioBuilder &faultRates(double mtbf_s, double mttr_s);
    /** Failover retry backoff base, seconds (doubles per attempt). */
    ScenarioBuilder &retryBackoff(double seconds);
    /** Failover drop deadline past the original arrival, seconds. */
    ScenarioBuilder &dropTimeout(double seconds);

    /** Cores in the multicore package. */
    ScenarioBuilder &cores(std::size_t count);
    /** Shared DVFS frequency factor of the package. */
    ScenarioBuilder &frequency(double f);
    /** Per-core idle descent state of the package policy. */
    ScenarioBuilder &coreState(LowPowerState state);
    /** Joint-idle delay before the package drops to S3, seconds. */
    ScenarioBuilder &packageSleepDelay(double seconds);
    /** Per-core offered load of the multicore scenario. */
    ScenarioBuilder &rho(double per_core_load);
    /** Stationary job count the multicore scenario runs. */
    ScenarioBuilder &jobCount(std::size_t count);

    /** Master seed every engine-drawn RNG derives from. */
    ScenarioBuilder &seed(std::uint64_t master_seed);
    /** Monte-Carlo replications of the scenario (>= 1). */
    ScenarioBuilder &replications(std::size_t count);
    /** Capture the per-epoch CSV in the result (single-server). */
    ScenarioBuilder &captureEpochs(bool on = true);
    /** Report regret vs the offline-optimal oracle (single-server). */
    ScenarioBuilder &reportRegret(bool on = true);
    /** FPTAS accuracy of the regret oracle (> 0). */
    ScenarioBuilder &optEpsilon(double epsilon);
    /** Replace the scenario's row label. */
    ScenarioBuilder &label(const std::string &text);

    /** Validate and return the finished spec. */
    ScenarioSpec build() const;

  private:
    ScenarioSpec _spec;
};

} // namespace sleepscale

#endif // SLEEPSCALE_EXPERIMENT_SCENARIO_HH
