/**
 * @file
 * The `sleepscale` command-line tool: run any of the library's
 * experiments without writing C++.
 *
 *   sleepscale sweep  [--workload dns] [--rho 0.1] [--state C6S3]
 *                     [--fstep 0.02] [--jobs 20000] [--seed 1]
 *   sleepscale select [--workload dns] [--rho 0.3] [--rho-b 0.8]
 *                     [--metric mean|tail] [--analytic] [--seed 1]
 *   sleepscale run    [--trace es|fs|<file.csv>] [--workload dns]
 *                     [--T 5] [--alpha 0.35] [--predictor LC]
 *                     [--rho-b 0.8] [--days 1] [--seed 1]
 *                     [--strategy SS] [--epochs-csv out.csv]
 *                     [--source trace|stationary|bursty] [--util 0.3]
 *                     [--burst-factor 4] [--burst-len 120]
 *                     [--burst-gap 1800] [--replay jobs.csv]
 *                     [--replications N] [--decision-time]
 *                     [--regret] [--opt-epsilon 0.05]
 *                     [--controller-q 1e-4] [--controller-r 1e-2]
 *                     [--controller-pole 0] [--controller-period 1]
 *   sleepscale trace  [--kind es|fs] [--days 3] [--seed 42]
 *                     [--out trace.csv]
 *   sleepscale farm   [--servers 4] [--dispatcher packing]
 *                     [--control farm-wide|per-server|distributed]
 *                     [--platform xeon] [--platforms xeon,atom,...]
 *                     [--decision-threads 0] [--trace es|fs]
 *                     [--workload dns] [--T 5] [--alpha 0.35] [--seed 1]
 *                     [--faults none|mtbf|correlated] [--mtbf 14400]
 *                     [--mttr 300] [--retry-backoff 1]
 *                     [--drop-timeout 300] [--fault-compare]
 *                     [--epochs-csv out.csv]
 *   sleepscale grid   [--engine single|farm] [--sweep-T 1,5,10]
 *                     [--sweep-predictor LC,NP] [--sweep-strategy ...]
 *                     [--sweep-dispatcher ...] [--sweep-servers ...]
 *                     [--sweep-alpha ...] [--sweep-control ...]
 *                     [--threads 0] [--csv out.csv]
 *                     plus any base option of run/farm
 *
 * run, farm, and grid accept --replications N (N >= 2): the scenario
 * is replicated N times under derived seeds and every metric prints as
 * mean ± 95% Student-t CI instead of a single-seed point estimate
 * (docs/STATISTICS.md).
 *
 * run, farm, and grid are thin shells over the unified experiment API:
 * they describe a ScenarioSpec (or a sweep grid of them) and hand it to
 * ExperimentRunner, which executes grids concurrently. Every component
 * is resolved by registry name, so `--dispatcher pakcing` fails fast
 * listing the registered spellings. Arrivals stream from a named job
 * source (--source / --replay); nothing is materialized, so day-scale
 * runs with millions of jobs use bounded memory.
 *
 * Every command prints aligned tables to stdout; numbers are watts and
 * seconds unless stated otherwise.
 */

#include <algorithm>
#include <iostream>

#include "analytic/mm1_sleep.hh"
#include "core/policy_manager.hh"
#include "core/predictor.hh"
#include "core/strategies.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "farm/dispatcher.hh"
#include "fault/fault_source.hh"
#include "util/cli_args.hh"
#include "util/error.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"

using namespace sleepscale;

namespace {

const std::set<std::string> knownOptions = {
    "workload",   "rho",        "state",      "fstep",
    "jobs",       "seed",       "rho-b",      "metric",
    "analytic",   "trace",      "T",          "alpha",
    "predictor",  "days",       "epochs-csv", "kind",
    "out",        "servers",    "dispatcher", "strategy",
    "engine",     "threads",    "csv",        "sweep-T",
    "sweep-predictor", "sweep-strategy", "sweep-dispatcher",
    "sweep-servers", "sweep-alpha", "sweep-control", "help",
    "source",     "replay",     "util",       "burst-factor",
    "burst-len",  "burst-gap",  "platform",   "platforms",
    "control",    "decision-threads", "replications",
    "faults",     "mtbf",       "mttr",       "retry-backoff",
    "drop-timeout", "fault-compare",
    "controller-q", "controller-r", "controller-pole",
    "controller-period", "decision-time",
    "regret",     "opt-epsilon",
    "shards",     "no-tail-histograms",
};

QosMetric
metricByName(const std::string &name)
{
    if (name == "mean")
        return QosMetric::MeanResponse;
    if (name == "tail")
        return QosMetric::TailResponse;
    fatal("unknown metric '" + name + "' (mean | tail)");
}

/** The scenario described by the shared base options of run/farm/grid. */
ScenarioSpec
scenarioFromArgs(const CliArgs &args, EngineKind engine)
{
    ScenarioSpec spec;
    spec.label = toString(engine);
    spec.engine = engine;
    spec.workload = args.get("workload", "dns");
    spec.platform = args.get("platform", "xeon");
    spec.trace.kind = args.get("trace", "es");
    spec.trace.days = args.getUnsigned<unsigned>("days", 1);
    // Job source: which stream feeds the engine. --replay implies the
    // replay source; otherwise --source names a registered shape.
    spec.source =
        args.has("replay") ? "replay" : args.get("source", "trace");
    spec.sourceUtilization = args.getDouble("util", 0.3);
    spec.burstRateFactor = args.getDouble("burst-factor", 4.0);
    spec.burstMeanLength = args.getDouble("burst-len", 120.0);
    spec.burstMeanGap = args.getDouble("burst-gap", 1800.0);
    spec.replayPath = args.get("replay", "");
    spec.strategy = args.get("strategy", "SS");
    spec.predictor = args.get("predictor", "LC");
    RuntimeConfig &knobs = spec.loop.perServer;
    knobs.epochMinutes = args.getUnsigned<unsigned>("T", 5);
    knobs.overProvision = args.getDouble("alpha", 0.35);
    knobs.rhoB = args.getDouble("rho-b", 0.8);
    knobs.qosMetric = metricByName(args.get("metric", "mean"));
    // Only the "poet" strategy keeps the controller; the others clear
    // it, so its flags go unchecked under them.
    ControllerConfig &controller = knobs.controller.emplace();
    controller.processNoise = args.getDouble("controller-q", 1e-4);
    controller.measurementNoise = args.getDouble("controller-r", 1e-2);
    controller.pole = args.getDouble("controller-pole", 0.0);
    controller.periodEpochs =
        args.getUnsigned<unsigned>("controller-period", 1);
    knobs.recordDecisionTime = args.has("decision-time");
    FarmRuntimeConfig &farm = spec.loop;
    farm.farmSize = args.getUnsigned("servers", 4);
    farm.dispatcher = args.get("dispatcher", "packing");
    farm.control = args.get("control", "farm-wide");
    farm.decisionThreads = args.getUnsigned("decision-threads", 0);
    farm.shards = args.getUnsigned("shards", 1);
    farm.tailHistograms = !args.has("no-tail-histograms");
    farm.faults = args.get("faults", "none");
    farm.mtbf = args.getDouble("mtbf", 4.0 * 3600.0);
    farm.mttr = args.getDouble("mttr", 300.0);
    farm.retryBackoff = args.getDouble("retry-backoff", 1.0);
    farm.dropTimeout = args.getDouble("drop-timeout", 300.0);
    spec.seed = args.getUnsigned("seed", 1);
    spec.replications = args.getUnsigned("replications", 1);
    spec.captureEpochs = args.has("epochs-csv");
    spec.reportRegret = args.has("regret");
    spec.optEpsilon = args.getDouble("opt-epsilon", 0.05);
    if (spec.trace.kind == "es" || spec.trace.kind == "fs") {
        // The paper's evaluation window.
        spec.trace.windowStartHour = 2;
        spec.trace.windowEndHour = 20;
    }
    // --platforms xeon,xeon,atom,atom names one platform per server
    // (and pins the farm size to the list length); an explicit
    // --servers must agree rather than be silently overridden.
    if (args.has("platforms")) {
        farm.platforms = args.getList("platforms");
        fatalIf(args.has("servers") &&
                    farm.farmSize != farm.platforms.size(),
                "--platforms lists " +
                    std::to_string(farm.platforms.size()) +
                    " platforms but --servers asks for " +
                    args.get("servers", "") +
                    " (drop --servers or make them agree)");
        farm.farmSize = farm.platforms.size();
    }
    fatalIf(spec.captureEpochs && spec.replications > 1,
            "--epochs-csv needs a single run (drop --replications)");
    return spec;
}

/** Write the per-epoch CSV a --epochs-csv run captured. */
void
writeEpochsCsv(const CliArgs &args, const ScenarioResult &result)
{
    const std::string path = args.getPath("epochs-csv", "epochs.csv");
    writeCsvFile(path, result.epochs);
    std::cout << "per-epoch CSV written to " << path << '\n';
}

int
cmdSweep(const CliArgs &args)
{
    const WorkloadSpec workload =
        workloadByName(args.get("workload", "dns"));
    const double rho = args.getDouble("rho", 0.1);
    const LowPowerState state =
        lowPowerStateFromString(args.get("state", "C6S3"));
    const double fstep = args.getDouble("fstep", 0.02);
    // A step that is not positive never reaches f = 1.
    fatalIf(!(fstep > 0.0), "sweep: option '--fstep' must be > 0, got '" +
                                args.get("fstep", "") + "'");
    const auto count = args.getUnsigned("jobs", 20000);
    const PlatformModel platform = PlatformModel::xeon();

    StationarySource source(workload, rho, args.getUnsigned("seed", 1));
    const auto jobs = materialize(source, count);

    TablePrinter table({"f", "mu*E[R]", "p95*mu", "E[P] [W]"});
    // Near-saturated loads still get the f = 1 row.
    for (double f = std::min(rho + 0.02, 1.0); f <= 1.0 + 1e-9;
         f += fstep) {
        const Policy policy{std::min(f, 1.0),
                            SleepPlan::immediate(state)};
        const PolicyEvaluation eval = evaluatePolicy(
            platform, workload.scaling, policy, jobs);
        table.addRow({policy.frequency,
                      eval.meanResponse() / workload.serviceMean,
                      eval.p95Response() / workload.serviceMean,
                      eval.avgPower()},
                     3);
    }
    table.print(std::cout);
    return 0;
}

int
cmdSelect(const CliArgs &args)
{
    const WorkloadSpec workload =
        workloadByName(args.get("workload", "dns"));
    const double rho = args.getDouble("rho", 0.3);
    const double rho_b = args.getDouble("rho-b", 0.8);
    const QosMetric metric = metricByName(args.get("metric", "mean"));
    const PlatformModel platform = PlatformModel::xeon();

    const QosConstraint qos =
        QosConstraint::fromBaseline(metric, rho_b, workload.serviceMean);
    const PolicyManager manager(
        platform, workload.scaling,
        PolicySpace::allStates(PolicySpace::frequencyGrid(0.12, 1.0,
                                                          0.01)),
        qos);

    PolicyDecision decision;
    if (args.has("analytic")) {
        const double mu = 1.0 / workload.serviceMean;
        decision = manager.selectAnalytic(rho * mu, mu);
    } else {
        StationarySource source(workload, rho,
                                args.getUnsigned("seed", 1));
        decision = manager.selectFromLog(materialize(source, 20000));
    }

    std::cout << "policy:    " << decision.policy.toString() << '\n'
              << "power:     " << decision.predictedPower << " W\n"
              << toString(metric) << " value: "
              << decision.predictedMetric << " s (budget "
              << qos.budget() << " s)\n"
              << "feasible:  " << (decision.feasible ? "yes" : "no")
              << "  (" << decision.evaluated << " candidates)\n";
    return 0;
}

/**
 * Mean ± CI summary of a replicated run, one line per headline metric.
 */
void
printReplicatedSummary(const ReplicatedResult &result)
{
    std::cout << "replications:  " << result.replications.size()
              << "  (mean ± 95% CI, seeds derived from "
              << result.spec.seed << ")\n"
              << "mean response: "
              << result.metric("mean_response_s").toString() << " s\n"
              << "p95 response:  "
              << result.metric("p95_response_s").toString() << " s\n"
              << "p99 response:  "
              << result.metric("p99_response_s").toString() << " s\n"
              << "avg power:     "
              << result.metric("avg_power_w").toString() << " W\n"
              << "energy:        "
              << result.metric("energy_j").toString() << " J\n"
              << "QoS violated:  "
              << 100.0 * result.metric("qos_violation").mean()
              << "% of replications\n";
    if (result.spec.reportRegret)
        std::cout << "oracle energy: "
                  << result.metric("offline_opt_energy").toString()
                  << " J\n"
                  << "regret:        "
                  << result.metric("regret_pct").toString() << " %\n";
}

int
cmdRun(const CliArgs &args)
{
    const ScenarioSpec spec =
        scenarioFromArgs(args, EngineKind::SingleServer);
    if (spec.replications > 1) {
        printReplicatedSummary(ExperimentRunner::runReplicated(
            spec, args.getUnsigned("threads", 0)));
        return 0;
    }
    const ScenarioResult result = ExperimentRunner::runScenario(spec);

    std::cout << "jobs:          " << result.jobs << '\n'
              << "mean response: " << result.meanResponse << " s  ("
              << result.normalizedMean << " service times)\n"
              << "p95 response:  " << result.p95Response << " s\n"
              << "avg power:     " << result.avgPower << " W\n"
              << "within budget: "
              << (result.withinBudget ? "yes" : "no") << '\n';

    std::cout << "state mix:    ";
    for (const auto &[key, value] : result.extras) {
        if (key.rfind("state_", 0) == 0)
            std::cout << ' ' << key.substr(6) << '=' << value;
    }
    std::cout << '\n';

    if (spec.loop.perServer.recordDecisionTime)
        std::cout << "decision cost: "
                  << result.extra("decision_us_mean") << " µs mean, "
                  << result.extra("decision_us_p99") << " µs p99\n";

    if (spec.reportRegret)
        std::cout << "oracle energy: "
                  << result.extra("offline_opt_energy")
                  << " J  (regret "
                  << result.extra("regret_pct") << "%)\n";

    if (spec.captureEpochs)
        writeEpochsCsv(args, result);
    return 0;
}

int
cmdTrace(const CliArgs &args)
{
    const std::string kind = args.get("kind", "es");
    fatalIf(kind != "es" && kind != "fs",
            "trace: unknown kind '" + kind + "' (es | fs)");
    const auto days = args.getUnsigned<unsigned>("days", 3);
    const std::uint64_t seed = args.getUnsigned("seed", 42);
    const UtilizationTrace trace =
        kind == "es" ? synthEmailStoreTrace(days, seed)
                     : synthFileServerTrace(days, seed);
    const std::string out = args.getPath("out", kind + "_trace.csv");
    trace.save(out);
    std::cout << trace.name() << ": " << trace.size()
              << " minutes, mean " << trace.meanUtilization()
              << ", peak " << trace.peakUtilization() << " -> " << out
              << '\n';
    return 0;
}

/**
 * Paired fault-vs-no-fault comparison under common random numbers:
 * both arms replay identical job streams, dispatch choices, and (in
 * the fault arm) replication-seed-derived fault schedules, so the
 * printed deltas isolate the cost of the injected outages.
 */
int
cmdFaultCompare(const ScenarioSpec &spec, const CliArgs &args)
{
    fatalIf(spec.loop.faults == "none",
            "farm: --fault-compare needs a fault source "
            "(--faults mtbf | correlated | scripted)");
    fatalIf(spec.replications < 2,
            "farm: --fault-compare needs --replications >= 2 for "
            "paired confidence intervals (the paper-style runs use 5)");

    ScenarioSpec faulty = spec;
    faulty.label = "faults(" + spec.loop.faults + ")";
    ScenarioSpec clean = spec;
    clean.loop.faults = "none";
    clean.label = "no-fault";

    const PairedComparison comparison =
        comparePaired(faulty, clean, args.getUnsigned("threads", 0));

    std::cout << "paired fault vs no-fault ("
              << comparison.a.replications.size()
              << " replications, common random numbers; faults: "
              << spec.loop.faults << ")\n"
              << "availability:  "
              << comparison.a.metric("availability").toString() << '\n'
              << "goodput:       "
              << comparison.a.metric("goodput").toString() << '\n'
              << "dropped jobs:  "
              << comparison.a.metric("dropped_jobs").toString() << '\n'
              << "retries:       "
              << comparison.a.metric("retries").toString() << '\n'
              << "degraded time: "
              << comparison.a.metric("degraded_s").toString()
              << " s\n\n";
    pairedTable(comparison).print(std::cout);
    return 0;
}

int
cmdFarm(const CliArgs &args)
{
    const ScenarioSpec spec = scenarioFromArgs(args, EngineKind::Farm);
    if (args.has("fault-compare"))
        return cmdFaultCompare(spec, args);
    if (spec.replications > 1) {
        const ReplicatedResult replicated =
            ExperimentRunner::runReplicated(
                spec, args.getUnsigned("threads", 0));
        std::cout << "servers:       " << spec.loop.farmSize << " ("
                  << spec.loop.dispatcher << ", " << spec.loop.control
                  << " control)\n";
        printReplicatedSummary(replicated);
        std::cout << "\nper-server view (replication 0):\n";
        serversTable(replicated.replications.front())
            .print(std::cout);
        return 0;
    }
    const ScenarioResult result =
        ExperimentRunner::runScenario(spec);

    std::cout << "servers:       " << spec.loop.farmSize << " ("
              << spec.loop.dispatcher << ", " << spec.loop.control
              << " control)\n"
              << "jobs:          " << result.jobs << '\n'
              << "mean response: " << result.meanResponse << " s\n"
              << "farm power:    " << result.avgPower << " W  ("
              << result.extra("per_server_w") << " W/server)\n"
              << "within budget: "
              << (result.withinBudget ? "yes" : "no") << '\n';
    if (spec.loop.faults != "none") {
        std::cout << "availability:  " << result.extra("availability")
                  << "  (down " << result.extra("down_s") << " s)\n"
                  << "goodput:       " << result.extra("goodput")
                  << "  (" << result.extra("dropped_jobs")
                  << " dropped, " << result.extra("retries")
                  << " retries)\n"
                  << "degraded time: " << result.extra("degraded_s")
                  << " s\n";
    }
    if (spec.loop.perServer.recordDecisionTime)
        std::cout << "decision cost: "
                  << result.extra("decision_us_mean") << " µs mean, "
                  << result.extra("decision_us_p99") << " µs p99\n";
    if (spec.captureEpochs)
        writeEpochsCsv(args, result);
    std::cout << '\n';
    serversTable(result).print(std::cout);
    return 0;
}

int
cmdGrid(const CliArgs &args)
{
    const std::string engine_name = args.get("engine", "single");
    EngineKind engine = EngineKind::SingleServer;
    if (engine_name == "farm")
        engine = EngineKind::Farm;
    else if (engine_name != "single")
        fatal("grid: unknown engine '" + engine_name +
              "' (single | farm)");

    const ScenarioSpec base = scenarioFromArgs(args, engine);
    fatalIf(base.captureEpochs,
            "grid: --epochs-csv needs a single run (use run or farm)");

    std::vector<SweepAxis> axes;
    if (args.has("sweep-T"))
        axes.push_back(sweep("T", &RuntimeConfig::epochMinutes,
                             args.getUnsignedList<unsigned>("sweep-T")));
    if (args.has("sweep-alpha"))
        axes.push_back(sweep("alpha", &RuntimeConfig::overProvision,
                             args.getDoubleList("sweep-alpha")));
    if (args.has("sweep-predictor"))
        axes.push_back(sweep("predictor", &ScenarioSpec::predictor,
                             args.getList("sweep-predictor")));
    if (args.has("sweep-strategy"))
        axes.push_back(sweep("strategy", &ScenarioSpec::strategy,
                             args.getList("sweep-strategy")));
    if (args.has("sweep-dispatcher"))
        axes.push_back(sweep("dispatcher", &FarmRuntimeConfig::dispatcher,
                             args.getList("sweep-dispatcher")));
    if (args.has("sweep-control"))
        axes.push_back(sweep("control", &FarmRuntimeConfig::control,
                             args.getList("sweep-control")));
    if (args.has("sweep-servers"))
        axes.push_back(sweep("servers", &FarmRuntimeConfig::farmSize,
                             args.getUnsignedList<std::size_t>(
                                 "sweep-servers")));
    fatalIf(axes.empty(),
            "grid: give at least one --sweep-* axis "
            "(--sweep-T, --sweep-alpha, --sweep-predictor, "
            "--sweep-strategy, --sweep-dispatcher, --sweep-servers, "
            "--sweep-control)");

    ExperimentRunner runner(args.getUnsigned("threads", 0));
    runner.addGrid(base, axes);
    std::cout << runner.scenarios().size()
              << " scenarios queued; running...\n\n";

    if (base.replications > 1) {
        const auto replicated = runner.runReplicated();
        replicationTable(replicated).print(std::cout);
        if (args.has("csv")) {
            const std::string path = args.getPath("csv", "grid.csv");
            writeReplicatedCsv(path, replicated);
            std::cout << "\nreplicated results CSV written to " << path
                      << '\n';
        }
        return 0;
    }

    const auto results = runner.run();
    resultsTable(results).print(std::cout);

    if (args.has("csv")) {
        const std::string path = args.getPath("csv", "grid.csv");
        writeResultsCsv(path, results);
        std::cout << "\nresults CSV written to " << path << '\n';
    }
    return 0;
}

void
printUsage()
{
    std::cout <<
        "sleepscale — runtime joint speed scaling and sleep management\n"
        "\n"
        "commands:\n"
        "  sweep    power/response curve for one sleep state\n"
        "  select   pick the best (frequency, state) for a load\n"
        "  run      trace-driven SleepScale day on one server\n"
        "  trace    generate a synthetic utilization trace CSV\n"
        "  farm     trace-driven SleepScale on a dispatched farm\n"
        "  grid     sweep a scenario grid in parallel, table/CSV out\n"
        "\n"
        "registered components:\n"
        "  workloads:   " + workloadRegistry().namesCsv() + "\n"
        "  predictors:  " + predictorRegistry().namesCsv() + "\n"
        "  strategies:  " + strategyRegistry().namesCsv() + "\n"
        "  dispatchers: " + dispatcherRegistry().namesCsv() + "\n"
        "  platforms:   " + platformRegistry().namesCsv() + "\n"
        "  job sources: " + jobSourceRegistry().namesCsv() + "\n"
        "  fault sources: " + faultSourceRegistry().namesCsv() + "\n"
        "\n"
        "farm control modes: farm-wide (one thinned-log decision for\n"
        "all servers) | per-server (autonomous per-server decisions;\n"
        "required for heterogeneous --platforms mixes) | distributed\n"
        "(zero-communication local rate scaling, docs/FARM_SCALE.md)\n"
        "\n"
        "farm scale knobs (docs/FARM_SCALE.md): --shards N shards the\n"
        "per-server simulation across N lanes (0 = auto, bit-identical\n"
        "at any lane count); --no-tail-histograms drops per-server\n"
        "response-time histograms to shrink 10k+-server runs\n"
        "\n"
        "farm fault injection (docs/FAULTS.md): --faults mtbf|correlated\n"
        "[--mtbf s] [--mttr s] [--retry-backoff s] [--drop-timeout s];\n"
        "--fault-compare with --replications N prints paired\n"
        "fault-vs-no-fault deltas under common random numbers\n"
        "\n"
        "run/farm/grid take --replications N to replicate under\n"
        "derived seeds and print mean ± 95% confidence intervals\n"
        "(docs/STATISTICS.md)\n"
        "\n"
        "--strategy poet selects the O(1) Kalman-filtered feedback\n"
        "controller (docs/CONTROL.md); knobs: --controller-q,\n"
        "--controller-r, --controller-pole, --controller-period.\n"
        "--decision-time reports per-epoch decision cost in µs\n"
        "(decision_us_mean / decision_us_p99)\n"
        "\n"
        "run and single-engine grids take --regret to score the run\n"
        "against the offline-optimal oracle (docs/OFFLINE_OPT.md):\n"
        "reports the oracle's energy and regret_pct =\n"
        "100*(energy/optimal - 1); with --replications N the regret\n"
        "prints as mean ± 95% CI. --opt-epsilon tightens/loosens the\n"
        "FPTAS bracket (default 0.05).\n"
        "\n"
        "run and farm take --epochs-csv out.csv to write the per-epoch\n"
        "decisions (farm: the farm-level epochs) of a single run.\n"
        "\n"
        "run `sleepscale <command> --help` semantics are documented at\n"
        "the top of tools/sleepscale_cli.cc and in the README.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliArgs args(argc, argv, knownOptions);
        const std::string &command = args.command();
        if (command.empty() || args.has("help")) {
            printUsage();
            return command.empty() && argc > 1 ? 1 : 0;
        }
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "select")
            return cmdSelect(args);
        if (command == "run")
            return cmdRun(args);
        if (command == "trace")
            return cmdTrace(args);
        if (command == "farm")
            return cmdFarm(args);
        if (command == "grid")
            return cmdGrid(args);
        std::cerr << "unknown command '" << command << "'\n\n";
        printUsage();
        return 1;
    } catch (const ConfigError &error) {
        std::cerr << error.what() << '\n';
        return 1;
    }
}
