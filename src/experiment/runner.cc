#include "experiment/runner.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analytic/offline_opt.hh"
#include "core/predictor.hh"
#include "core/runtime.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

namespace {

/**
 * Per-epoch decision-cost extras (recordDecisionTime scenarios
 * only, so timing-free runs keep their schema). The mean and p99 are
 * taken over decided epochs; an all-undecided run reports zeros.
 */
void
addDecisionExtras(ScenarioResult &result,
                  const std::vector<EpochReport> &epochs)
{
    std::vector<double> samples;
    samples.reserve(epochs.size());
    for (const EpochReport &epoch : epochs) {
        if (epoch.decided)
            samples.push_back(epoch.decisionMicros);
    }
    double mean = 0.0;
    double p99 = 0.0;
    if (!samples.empty()) {
        for (double sample : samples)
            mean += sample;
        mean /= static_cast<double>(samples.size());
        std::sort(samples.begin(), samples.end());
        const std::size_t index = static_cast<std::size_t>(
            std::ceil(0.99 * static_cast<double>(samples.size())));
        p99 = samples[std::min(index == 0 ? 0 : index - 1,
                               samples.size() - 1)];
    }
    result.extras.emplace_back("decision_us_mean", mean);
    result.extras.emplace_back("decision_us_p99", p99);
}

} // namespace

ScenarioResult
ExperimentRunner::runQueued(const ScenarioSpec &spec)
{
    const PlatformModel platform = platformByName(spec.platform);
    const WorkloadSpec workload = workloadOf(spec);
    const UtilizationTrace trace = spec.trace.realize();
    const FarmRuntimeConfig config = farmConfigOf(spec);
    const FarmRuntime runtime(platform, workload, config);
    const auto source = sourceOf(spec, workload, trace);
    const auto predictor =
        makePredictor(spec.predictor, 10, trace.values());
    const FarmRuntimeResult run =
        runtime.run(*source, trace, *predictor);

    ScenarioResult result;
    result.spec = spec;
    result.meanResponse = run.meanResponse();
    result.normalizedMean = run.meanResponse() / workload.serviceMean;
    result.p95Response = run.total.responsePercentile(95.0);
    result.p99Response = run.total.responsePercentile(99.0);
    result.avgPower = run.avgPower();
    result.energy = run.total.energy;
    result.elapsed = run.total.elapsed();
    result.jobs = run.total.arrivals;
    result.withinBudget = run.withinBudget();
    result.extras.emplace_back("epochs",
                               static_cast<double>(run.epochs.size()));
    result.extras.emplace_back(
        "per_server_w",
        run.avgPower() / static_cast<double>(config.farmSize));
    // Availability-plane metrics, emitted unconditionally (zeros and
    // all) so fault and no-fault result rows share one schema and
    // replication can compute per-metric CIs and paired deltas.
    result.extras.emplace_back("availability",
                               run.faults.availability(config.farmSize));
    result.extras.emplace_back("goodput", run.faults.goodput());
    result.extras.emplace_back(
        "dropped_jobs", static_cast<double>(run.faults.dropped));
    result.extras.emplace_back(
        "retries", static_cast<double>(run.faults.retries));
    result.extras.emplace_back("degraded_s",
                               run.faults.degradedSeconds);
    result.extras.emplace_back("down_s", run.faults.downSeconds);
    // Per-state idle residencies and the selected-state mix, every
    // state listed (zeros included) for the same reason.
    const double elapsed = run.total.elapsed();
    const auto fractions = stateSelectionFractions(run.epochs);
    for (std::size_t i = 0; i < numLowPowerStates; ++i)
        result.extras.emplace_back(
            "residency_" + toString(allLowPowerStates[i]),
            elapsed > 0.0 ? run.total.idleResidency[i] / elapsed : 0.0);
    for (std::size_t i = 0; i < numLowPowerStates; ++i)
        result.extras.emplace_back(
            "state_" + toString(allLowPowerStates[i]), fractions[i]);
    // In every control mode the farm-level epochs' decisionMicros times
    // the whole decision fan-out — the farm-scale decision cost, not
    // one server's.
    if (config.perServer.recordDecisionTime)
        addDecisionExtras(result, run.epochs);
    if (spec.reportRegret) {
        // Re-materialize the exact job log the runtime consumed (same
        // source, same seed, same arrival cutoff) and hand it to the
        // offline oracle with the run's accounting horizon, so the
        // regret compares identical books (docs/OFFLINE_OPT.md).
        const auto replay = sourceOf(spec, workload, trace);
        std::vector<Job> log;
        Job job;
        while (replay->next(job) && job.arrival < trace.duration())
            log.push_back(job);
        OfflineOptOptions options;
        options.epsilon = spec.optEpsilon;
        const OfflineOptimal oracle(platform, workload.scaling, options);
        const OfflineOptResult opt = oracle.solve(
            OfflineOptInstance::fromJobs(std::move(log),
                                         run.total.elapsed()));
        result.extras.emplace_back("offline_opt_energy", opt.energy);
        result.extras.emplace_back(
            "regret_pct",
            opt.energy > 0.0
                ? 100.0 * (run.total.energy / opt.energy - 1.0)
                : 0.0);
    }
    if (spec.captureEpochs)
        result.epochs = epochsToCsv(run.epochs);
    if (spec.engine != EngineKind::Farm)
        return result;
    result.servers.reserve(run.servers.size());
    for (const FarmServerReport &server : run.servers) {
        ServerResultSummary summary;
        summary.platform = server.platform;
        summary.meanResponse = server.meanResponse();
        summary.avgPower = server.avgPower();
        summary.energy = server.total.energy;
        summary.jobs = server.jobsRouted;
        summary.withinBudget = server.withinBudget;
        result.servers.push_back(std::move(summary));
    }
    return result;
}

double
ScenarioResult::extra(const std::string &key) const
{
    for (const auto &entry : extras) {
        if (entry.first == key)
            return entry.second;
    }
    fatal("ScenarioResult '" + spec.label + "': no extra metric '" + key +
          "'");
}

std::vector<ScenarioSpec>
expandGrid(const ScenarioSpec &base, const std::vector<SweepAxis> &axes,
           bool reseed_per_scenario)
{
    for (const SweepAxis &axis : axes) {
        if (axis.points.empty())
            fatal("expandGrid: sweep axis '" + axis.name + "' is empty");
    }

    std::vector<ScenarioSpec> grid{base};
    for (const SweepAxis &axis : axes) {
        std::vector<ScenarioSpec> next;
        next.reserve(grid.size() * axis.points.size());
        for (const ScenarioSpec &spec : grid) {
            for (const auto &[value, apply] : axis.points) {
                ScenarioSpec expanded = spec;
                apply(expanded);
                expanded.label += (expanded.label.empty() ? "" : " ") +
                                  axis.name + "=" + value;
                next.push_back(std::move(expanded));
            }
        }
        grid = std::move(next);
    }
    if (reseed_per_scenario) {
        for (std::size_t i = 0; i < grid.size(); ++i)
            grid[i].seed = mixSeed(base.seed + i);
    }
    return grid;
}

ExperimentRunner::ExperimentRunner(std::size_t threads)
    : _threads(threads)
{
    if (_threads == 0)
        _threads = ThreadPool::hardwareLanes();
}

ExperimentRunner &
ExperimentRunner::add(ScenarioSpec spec)
{
    spec.validate();
    _scenarios.push_back(std::move(spec));
    return *this;
}

ExperimentRunner &
ExperimentRunner::addGrid(const ScenarioSpec &base,
                          const std::vector<SweepAxis> &axes,
                          bool reseed_per_scenario)
{
    for (ScenarioSpec &spec : expandGrid(base, axes, reseed_per_scenario))
        add(std::move(spec));
    return *this;
}

ScenarioResult
ExperimentRunner::runScenario(const ScenarioSpec &spec)
{
    spec.validate();
    return runQueued(spec);
}

std::vector<ScenarioResult>
ExperimentRunner::run() const
{
    std::vector<ScenarioResult> results(_scenarios.size());
    if (_scenarios.empty())
        return results;

    // Results land by scenario index, so any pool width bit-matches a
    // sequential run; the pool propagates the first failure.
    ThreadPool pool(std::min(_threads, _scenarios.size()));
    pool.parallelFor(_scenarios.size(),
                     [&](std::size_t i, std::size_t) {
                         results[i] = runQueued(_scenarios[i]);
                     });
    return results;
}

TablePrinter
resultsTable(const std::vector<ScenarioResult> &results)
{
    TablePrinter table({"scenario", "engine", "mu*E[R]", "p95 (svc)",
                        "E[P] [W]", "within budget?"});
    for (const ScenarioResult &result : results) {
        const double service_mean =
            result.meanResponse > 0.0 && result.normalizedMean > 0.0
                ? result.meanResponse / result.normalizedMean
                : 1.0;
        table.addRow({result.spec.label, toString(result.spec.engine),
                      std::to_string(result.normalizedMean),
                      std::to_string(result.p95Response / service_mean),
                      std::to_string(result.avgPower),
                      result.withinBudget ? "yes" : "no"});
    }
    return table;
}

TablePrinter
serversTable(const ScenarioResult &result)
{
    fatalIf(result.servers.empty(),
            "serversTable: scenario '" + result.spec.label +
                "' has no per-server results (farm engine only)");
    TablePrinter table({"server", "platform", "jobs", "E[R] [s]",
                        "E[P] [W]", "within budget?"});
    for (std::size_t i = 0; i < result.servers.size(); ++i) {
        const ServerResultSummary &server = result.servers[i];
        std::ostringstream response, power;
        response.precision(6);
        response << server.meanResponse;
        power.precision(6);
        power << server.avgPower;
        table.addRow({std::to_string(i), server.platform,
                      std::to_string(server.jobs), response.str(),
                      power.str(),
                      server.withinBudget ? "yes" : "no"});
    }
    return table;
}

std::string
resultsToCsvString(const std::vector<ScenarioResult> &results)
{
    // The union of extra keys, in first-seen order, pads the schema so
    // mixed-engine result sets still export one rectangular table.
    std::vector<std::string> extra_keys;
    for (const ScenarioResult &result : results) {
        for (const auto &entry : result.extras) {
            if (std::find(extra_keys.begin(), extra_keys.end(),
                          entry.first) == extra_keys.end())
                extra_keys.push_back(entry.first);
        }
    }

    std::ostringstream out;
    out << "label,engine,workload,trace,strategy,predictor,seed,"
           "mean_response_s,normalized_mean,p95_response_s,"
           "p99_response_s,avg_power_w,energy_j,elapsed_s,jobs,"
           "within_budget";
    for (const std::string &key : extra_keys)
        out << ',' << key;
    out << '\n';

    for (const ScenarioResult &result : results) {
        const ScenarioSpec &spec = result.spec;
        out << csvQuote(spec.label) << ',' << toString(spec.engine)
            << ',' << spec.workload << ','
            << csvQuote(spec.trace.label()) << ','
            << csvQuote(spec.strategy) << ',' << spec.predictor << ','
            << spec.seed << ',' << result.meanResponse << ','
            << result.normalizedMean << ',' << result.p95Response << ','
            << result.p99Response << ','
            << result.avgPower << ',' << result.energy << ','
            << result.elapsed << ',' << result.jobs << ','
            << (result.withinBudget ? 1 : 0);
        for (const std::string &key : extra_keys) {
            out << ',';
            for (const auto &entry : result.extras) {
                if (entry.first == key) {
                    out << entry.second;
                    break;
                }
            }
        }
        out << '\n';
    }
    return out.str();
}

void
writeResultsCsv(const std::string &path,
                const std::vector<ScenarioResult> &results)
{
    writeTextFile(path, resultsToCsvString(results));
}

} // namespace sleepscale
