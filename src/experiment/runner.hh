/**
 * @file
 * Scenario execution and sweep-grid expansion.
 *
 * ExperimentRunner is the single entry point over the three engines
 * (SleepScaleRuntime, a one-server FarmRuntime; FarmRuntime; and
 * MulticoreSim). It executes ScenarioSpecs — one or a whole parameter
 * grid — on a worker pool and returns uniform ScenarioResults for
 * table/CSV export:
 *
 *   ExperimentRunner runner;
 *   runner.addGrid(base, {sweepEpochMinutes({1, 5, 10, 15}),
 *                         sweepPredictors({"LC", "LMS", "NP"})});
 *   const auto results = runner.run();      // parallel by default
 *   resultsTable(results).print(std::cout);
 *
 * Determinism: every random stream an engine draws is derived from the
 * scenario's own seed inside runScenario(), never from shared state, so
 * a parallel run bit-matches a sequential run of the same grid.
 */

#ifndef SLEEPSCALE_EXPERIMENT_RUNNER_HH
#define SLEEPSCALE_EXPERIMENT_RUNNER_HH

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/scenario.hh"
#include "util/csv.hh"
#include "util/table_printer.hh"

namespace sleepscale {

/** Replicated-scenario outcome (see experiment/replication.hh). */
struct ReplicatedResult;

/** Per-back-end summary of a farm scenario (index order). */
struct ServerResultSummary
{
    std::string platform;          ///< Platform model the server ran.
    double meanResponse = 0.0;     ///< Server-local E[R], seconds.
    double avgPower = 0.0;         ///< Server-local E[P], watts.
    double energy = 0.0;           ///< Server-local energy, joules.
    std::uint64_t jobs = 0;        ///< Jobs dispatched to the server.
    bool withinBudget = false;     ///< Server met the QoS budget.
};

/** Uniform outcome of one scenario, whatever the engine. */
struct ScenarioResult
{
    ScenarioSpec spec;             ///< The scenario that produced this.

    double meanResponse = 0.0;     ///< Whole-run E[R], seconds.
    double normalizedMean = 0.0;   ///< µ E[R] (service times).
    double p95Response = 0.0;      ///< 95th-percentile response, s.
    double p99Response = 0.0;      ///< 99th-percentile response, s.
    double avgPower = 0.0;         ///< Whole-run E[P], watts.
    double energy = 0.0;           ///< Total energy, joules.
    double elapsed = 0.0;          ///< Simulated span, seconds.
    std::uint64_t jobs = 0;        ///< Jobs offered to the engine.
    bool withinBudget = false;     ///< QoS statistic met its budget.

    /** Engine-specific metrics (e.g. farm "per_server_w", multicore
     * "s3_residency", single-server "state_<name>" selection
     * fractions), uniform-schema exported. */
    std::vector<std::pair<std::string, double>> extras;

    /** Jobs routed to each back-end (farm engine only). */
    std::vector<std::uint64_t> jobsPerServer;

    /** Per-server breakdown (farm engine only; one row per back-end,
     * see serversTable()). */
    std::vector<ServerResultSummary> servers;

    /** Per-epoch detail when the spec asked for captureEpochs. */
    CsvTable epochs;

    /** Value of a named extra; fatal() when absent. */
    double extra(const std::string &key) const;
};

/**
 * One sweep dimension: a parameter name and the points it takes. Each
 * point carries a printable value (for labels and CSV) and a mutator
 * applied to the expanding spec.
 */
struct SweepAxis
{
    /** Axis name used in labels and CSV ("T", "predictor", ...). */
    std::string name;

    /** The points swept: printable value plus the spec mutator. */
    std::vector<std::pair<std::string, std::function<void(ScenarioSpec &)>>>
        points;
};

/** Sweep the policy update interval T (minutes). */
SweepAxis sweepEpochMinutes(const std::vector<unsigned> &values);

/** Sweep registered predictors by name. */
SweepAxis sweepPredictors(const std::vector<std::string> &names);

/** Sweep registered strategies by name. */
SweepAxis sweepStrategies(const std::vector<std::string> &names);

/** Sweep registered dispatchers by name. */
SweepAxis sweepDispatchers(const std::vector<std::string> &names);

/** Sweep the farm size. */
SweepAxis sweepFarmSizes(const std::vector<std::size_t> &sizes);

/** Sweep the farm control mode ("farm-wide" / "per-server"). */
SweepAxis sweepFarmControls(const std::vector<std::string> &modes);

/** Sweep the over-provisioning factor α. */
SweepAxis sweepOverProvision(const std::vector<double> &alphas);

/** Sweep the QoS metric (mean / tail). */
SweepAxis sweepQosMetrics(const std::vector<QosMetric> &metrics);

/** Sweep the multicore package-S3 delay (seconds; inf disables). */
SweepAxis sweepPackageSleepDelays(const std::vector<double> &delays);

/** Sweep the multicore core count. */
SweepAxis sweepCores(const std::vector<std::size_t> &counts);

/** Arbitrary custom dimension. */
SweepAxis customAxis(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(ScenarioSpec &)>>>
        points);

/**
 * Expand a base spec against sweep axes into the full cross-product
 * grid (first axis outermost). Each scenario's label is the base label
 * plus one " name=value" suffix per axis.
 *
 * @param reseed_per_scenario When true, each grid point gets a distinct
 *        seed derived from (base seed, grid index); when false (the
 *        default) every point shares the base seed so compared policies
 *        see identical job streams, as in the paper's figures.
 */
std::vector<ScenarioSpec>
expandGrid(const ScenarioSpec &base, const std::vector<SweepAxis> &axes,
           bool reseed_per_scenario = false);

/** Executes scenarios — singly, or a set on a worker pool. */
class ExperimentRunner
{
  public:
    /**
     * @param threads Worker-pool width for run(); 0 uses the hardware
     *        concurrency (via ThreadPool::hardwareLanes, the one
     *        sanctioned topology probe). Results are identical for any
     *        width: each scenario writes a scenario-indexed slot and
     *        the report is assembled in index order after the join
     *        (docs/CONCURRENCY.md, invariant 1).
     */
    explicit ExperimentRunner(std::size_t threads = 0);

    /** Queue one scenario. */
    ExperimentRunner &add(ScenarioSpec spec);

    /** Queue a whole sweep grid (see expandGrid). */
    ExperimentRunner &addGrid(const ScenarioSpec &base,
                              const std::vector<SweepAxis> &axes,
                              bool reseed_per_scenario = false);

    /** The queued scenarios, in execution order. */
    const std::vector<ScenarioSpec> &scenarios() const
    {
        return _scenarios;
    }

    /**
     * Run every queued scenario and return results in queue order.
     * Scenarios execute concurrently on the worker pool; each derives
     * all randomness from its own seed, so the outcome is independent
     * of the pool width and of scheduling.
     */
    std::vector<ScenarioResult> run() const;

    /**
     * Run every queued scenario spec.replications times under derived
     * per-replication seeds and reduce each into per-metric Student-t
     * confidence intervals (experiment/replication.hh). The whole
     * (scenario × replication) space shares one worker pool; results
     * are reduced in queue/replication index order, so any pool width
     * is bit-identical to a sequential run.
     *
     * @param confidence Two-sided CI coverage level in (0, 1).
     */
    std::vector<ReplicatedResult>
    runReplicated(double confidence = 0.95) const;

    /** Execute one scenario synchronously (validates first). */
    static ScenarioResult runScenario(const ScenarioSpec &spec);

    /**
     * Execute one scenario spec.replications times (ReplicationPlan)
     * and summarize with confidence intervals.
     *
     * @param spec The scenario; spec.replications sets N.
     * @param threads Fan-out width (0 = hardware, 1 = sequential).
     * @param confidence Two-sided CI coverage level in (0, 1).
     */
    static ReplicatedResult runReplicated(const ScenarioSpec &spec,
                                          std::size_t threads = 1,
                                          double confidence = 0.95);

  private:
    std::size_t _threads;
    std::vector<ScenarioSpec> _scenarios;
};

/**
 * Standard results table: label, engine, µE[R], p95 (service times),
 * E[P] in watts, and budget verdict — the columns every bench prints.
 */
TablePrinter resultsTable(const std::vector<ScenarioResult> &results);

/**
 * Per-server breakdown of one farm result: server index, platform,
 * dispatched jobs, mean response, watts, and budget verdict — the view
 * a heterogeneous or per-server-control run is read through. fatal()
 * when the result carries no per-server rows (non-farm engines).
 */
TablePrinter serversTable(const ScenarioResult &result);

/**
 * Serialize results as CSV (uniform schema; the union of extras across
 * rows becomes trailing columns, blank where a row lacks the key).
 */
std::string resultsToCsvString(const std::vector<ScenarioResult> &results);

/** Write resultsToCsvString() to a file, fatal() on I/O failure. */
void writeResultsCsv(const std::string &path,
                     const std::vector<ScenarioResult> &results);

} // namespace sleepscale

#endif // SLEEPSCALE_EXPERIMENT_RUNNER_HH
