/**
 * @file
 * Scenario execution and sweep-grid expansion.
 *
 * ExperimentRunner is the single entry point over the epoch loop. It
 * executes ScenarioSpecs — one or a whole parameter grid — on a worker
 * pool and returns uniform ScenarioResults for table/CSV export. Every
 * scenario runs through FarmRuntime, the one epoch loop (a
 * single-server scenario is the one-server farm of singleServerFarm()).
 *
 *   ExperimentRunner runner;
 *   runner.addGrid(base,
 *                  {sweep("T", &RuntimeConfig::epochMinutes, {1, 5, 10, 15}),
 *                   sweep("predictor", &ScenarioSpec::predictor,
 *                         {"LC", "LMS", "NP"})});
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
#include <sstream>
#include <string>
#include <type_traits>
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

    /** Engine metrics, uniform-schema exported. Single-server and farm
     * rows share one list: "epochs", "per_server_w", the availability
     * plane, "residency_<state>", "state_<state>" selection fractions,
     * then "decision_us_*" and the regret pair when the spec asks for
     * them. */
    std::vector<std::pair<std::string, double>> extras;

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

/**
 * The part of a spec that a sweep() member pointer of `Owner` indexes:
 * the spec itself, its loop configuration, or the loop's per-server
 * knobs.
 */
template <typename Owner>
Owner &
sweptPart(ScenarioSpec &spec)
{
    if constexpr (std::is_same_v<Owner, FarmRuntimeConfig>) {
        return spec.loop;
    } else if constexpr (std::is_same_v<Owner, RuntimeConfig>) {
        return spec.loop.perServer;
    } else {
        static_assert(std::is_same_v<Owner, ScenarioSpec>,
                      "sweep() takes a ScenarioSpec, FarmRuntimeConfig "
                      "or RuntimeConfig member");
        return spec;
    }
}

/**
 * Sweep one field over `values`: a ScenarioSpec field, or a loop knob
 * named by its FarmRuntimeConfig or RuntimeConfig member (the owner is
 * deduced from the member pointer). Each point's printable value is
 * the value streamed through an std::ostringstream ("5", "0.35",
 * "R2H(C6)", "inf"), which the grid label and CSV row carry.
 *
 *   sweep("alpha", &RuntimeConfig::overProvision, {0.0, 0.35})
 *   sweep("servers", &FarmRuntimeConfig::farmSize, {2, 4})
 */
template <typename Owner, typename Field>
SweepAxis
sweep(std::string name, Field Owner::*field,
      const std::vector<std::type_identity_t<Field>> &values)
{
    SweepAxis axis{std::move(name), {}};
    for (const Field &value : values) {
        std::ostringstream printed;
        printed << value;
        axis.points.emplace_back(
            printed.str(), [field, value](ScenarioSpec &spec) {
                sweptPart<Owner>(spec).*field = value;
            });
    }
    return axis;
}

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

    /** Validate and queue one scenario; run() and runReplicated()
     * do not validate it again. */
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
     * confidence intervals (experiment/replication.hh). This is the
     * library's one replication fan-out: the whole (scenario ×
     * replication) space shares one worker pool, and results are
     * reduced in queue/replication index order, so any pool width is
     * bit-identical to a sequential run.
     */
    std::vector<ReplicatedResult> runReplicated() const;

    /** Execute one scenario synchronously (validates first). */
    static ScenarioResult runScenario(const ScenarioSpec &spec);

    /**
     * Execute one scenario spec.replications times and summarize with
     * confidence intervals: runReplicated() on a runner holding only
     * `spec`.
     *
     * @param spec The scenario; spec.replications sets N.
     * @param threads Fan-out width (0 = hardware, 1 = sequential).
     */
    static ReplicatedResult runReplicated(const ScenarioSpec &spec,
                                          std::size_t threads = 1);

  private:
    /** runScenario() without the validation, for scenarios add()
     * already validated (and their per-replication reseeds): one
     * FarmRuntime::run and its result extras. */
    static ScenarioResult runQueued(const ScenarioSpec &spec);

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
