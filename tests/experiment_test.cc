/**
 * @file
 * Tests for the unified experiment layer: component registries,
 * scenario validation, sweep-grid expansion, the single run path of
 * the single-server and farm engines, and the determinism of the
 * parallel runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/registry.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

// ------------------------------------------------------------ registry

TEST(Registry, UnknownNameThrowsListingRegistered)
{
    try {
        predictorRegistry().get("nope");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("unknown predictor 'nope'"),
                  std::string::npos)
            << what;
        // The message lists the registered alternatives.
        EXPECT_NE(what.find("LC"), std::string::npos) << what;
        EXPECT_NE(what.find("Offline"), std::string::npos) << what;
    }
}

TEST(Registry, DuplicateRegistrationThrows)
{
    Registry<int (*)()> registry("gadget");
    registry.add("one", +[] { return 1; });
    EXPECT_THROW(registry.add("one", +[] { return 2; }), ConfigError);
    EXPECT_EQ(registry.get("one")(), 1);
}

TEST(Registry, BuiltInsAreRegistered)
{
    for (const char *name : {"NP", "LMS", "LC", "Offline"})
        EXPECT_TRUE(predictorRegistry().contains(name)) << name;
    for (const char *name :
         {"SS", "SS(C3)", "DVFS", "R2H(C3)", "R2H(C6)"})
        EXPECT_TRUE(strategyRegistry().contains(name)) << name;
    for (const char *name : {"random", "round-robin", "JSQ", "packing"})
        EXPECT_TRUE(dispatcherRegistry().contains(name)) << name;
    for (const char *name : {"dns", "mail", "google"})
        EXPECT_TRUE(workloadRegistry().contains(name)) << name;
    for (const char *name : {"xeon", "atom"})
        EXPECT_TRUE(platformRegistry().contains(name)) << name;
}

TEST(Registry, NamesAreSorted)
{
    const auto names = dispatcherRegistry().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names.size(), 4u);
}

TEST(Registry, FarmRuntimeRejectsUnknownDispatcherAtConstruction)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    FarmRuntimeConfig config;
    config.dispatcher = "pakcing"; // typo
    try {
        const FarmRuntime runtime(xeon, dns, config);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("pakcing"), std::string::npos) << what;
        EXPECT_NE(what.find("packing"), std::string::npos) << what;
    }
}

// ------------------------------------------------------ spec validation

TEST(ScenarioSpec, ValidatesAndRealizesFlatTrace)
{
    ScenarioSpec spec;
    spec.workload = "mail";
    spec.platform = "atom";
    spec.trace = {.kind = "flat", .flatLevel = 0.25, .flatMinutes = 45};
    spec.strategy = "DVFS";
    spec.loop.perServer.epochMinutes = 3;
    spec.predictor = "NP";
    EXPECT_NO_THROW(spec.validate());

    const UtilizationTrace trace = spec.trace.realize();
    EXPECT_EQ(trace.size(), 45u);
    EXPECT_DOUBLE_EQ(trace.at(0), 0.25);
}

/** Whether validate() rejects a default spec after `edit`; every
 * rejection must name the scenario label. */
bool
rejects(const std::function<void(ScenarioSpec &)> &edit)
{
    ScenarioSpec spec;
    spec.label = "s";
    edit(spec);
    try {
        spec.validate();
    } catch (const ConfigError &error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("sleepscale: fatal: ScenarioSpec 's': ", 0), 0u)
            << what;
        return true;
    }
    return false;
}

TEST(ScenarioSpec, RejectsUnknownComponentNames)
{
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.workload = "smtp"; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.strategy = "YOLO"; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.predictor = "ARIMA"; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.dispatcher = "least-loaded";
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.platform = "epyc"; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.source = "psychic"; }));
    // The replay source needs a path.
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.source = "replay"; }));
}

TEST(ScenarioSpec, ReplayPathNeedsTheReplaySource)
{
    // A path under another source would be silently ignored.
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.source = "stationary";
        s.replayPath = "jobs.csv";
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.replayPath = "jobs.csv"; }));

    // The replay source opens its log when the scenario is validated: a
    // readable log passes, a missing one fails before anything runs.
    const std::string log =
        ::testing::TempDir() + "sleepscale_scenario_replay.csv";
    std::ofstream(log) << "arrival,size\n1.0,0.5\n";
    EXPECT_FALSE(rejects([log](ScenarioSpec &s) {
        s.source = "replay";
        s.replayPath = log;
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.source = "replay";
        s.replayPath = ::testing::TempDir() + "sleepscale_no_such_log.csv";
    }));
}

TEST(ScenarioSpec, RejectsBadSourceKnobsAndTraces)
{
    // validate() builds a throwaway source over the realized trace, so
    // these fail up front, naming the scenario, not mid-run.
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.source = "stationary";
        s.sourceUtilization = 2.0;
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.source = "bursty";
        s.burstRateFactor = 0.5;
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.source = "bursty";
        s.burstMeanLength = 0.0;
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) { s.sourceRateScale = 0.0; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.trace.kind = ::testing::TempDir() + "sleepscale_no_such_trace.csv";
    }));
}

TEST(ScenarioSpec, FarmControlAndPlatformMixValidation)
{
    EXPECT_FALSE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.farmSize = 4;
        s.loop.control = "per-server";
        s.loop.platforms = {"xeon", "xeon", "atom", "atom"};
        s.loop.decisionThreads = 2;
    }));

    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.control = "per-rack";
    }));
    // One platform name per server, or none.
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.farmSize = 2;
        s.loop.platforms = {"xeon", "atom", "xeon"};
    }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.farmSize = 2;
        s.loop.control = "per-server";
        s.loop.platforms = {"xeon", "epyc"};
    }));
    // A heterogeneous mix requires autonomous per-server control.
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.farmSize = 2;
        s.loop.control = "farm-wide";
        s.loop.platforms = {"xeon", "atom"};
    }));
}

TEST(ExperimentRunner, HeterogeneousFarmScenarioReportsPerServer)
{
    ScenarioSpec spec;
    spec.label = "big.LITTLE";
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "flat", .flatLevel = 0.25, .flatMinutes = 20};
    spec.predictor = "NP";
    spec.loop.farmSize = 2;
    spec.loop.dispatcher = "random";
    spec.loop.control = "per-server";
    spec.loop.platforms = {"xeon", "atom"};
    spec.seed = 33;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);

    ASSERT_EQ(result.servers.size(), 2u);
    EXPECT_EQ(result.servers[0].platform, platformByName("xeon").name());
    EXPECT_EQ(result.servers[1].platform, platformByName("atom").name());
    EXPECT_EQ(result.servers[0].jobs + result.servers[1].jobs,
              result.jobs);
    EXPECT_NEAR(result.servers[0].avgPower + result.servers[1].avgPower,
                result.avgPower, 1e-6 * std::max(1.0, result.avgPower));
    // The per-server breakdown renders as a table, one row per server.
    std::ostringstream out;
    serversTable(result).print(out);
    EXPECT_NE(out.str().find("Atom"), std::string::npos);

    // Non-farm engines carry no per-server rows.
    ScenarioSpec single_spec;
    single_spec.label = "single";
    single_spec.trace = {.kind = "flat", .flatLevel = 0.2,
                         .flatMinutes = 10};
    single_spec.predictor = "NP";
    const ScenarioResult single =
        ExperimentRunner::runScenario(single_spec);
    EXPECT_TRUE(single.servers.empty());
    EXPECT_THROW(serversTable(single), ConfigError);
}

TEST(ExpandGrid, FarmControlAxisExpands)
{
    ScenarioSpec base;
    base.label = "farm";
    base.engine = EngineKind::Farm;
    base.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 20};
    const auto grid = expandGrid(
        base, {sweep("control", &FarmRuntimeConfig::control,
                     {"farm-wide", "per-server"})});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].loop.control, "farm-wide");
    EXPECT_EQ(grid[1].loop.control, "per-server");
    EXPECT_NE(grid[1].label.find("control=per-server"),
              std::string::npos);
}

TEST(ExperimentRunner, BurstySourceScenarioSmoke)
{
    ScenarioSpec spec;
    spec.label = "bursty smoke";
    spec.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 20};
    spec.source = "bursty";
    spec.sourceUtilization = 0.1;
    spec.burstRateFactor = 5.0;
    spec.burstMeanLength = 60.0;
    spec.burstMeanGap = 300.0;
    spec.predictor = "NP";
    spec.seed = 19;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    EXPECT_GT(result.jobs, 100u);
    EXPECT_GT(result.avgPower, 0.0);
}

TEST(ScenarioSpec, RejectsOutOfRangeKnobs)
{
    EXPECT_TRUE(rejects(
        [](ScenarioSpec &s) { s.loop.perServer.epochMinutes = 0; }));
    EXPECT_TRUE(
        rejects([](ScenarioSpec &s) { s.loop.perServer.rhoB = 1.5; }));
    EXPECT_TRUE(rejects([](ScenarioSpec &s) {
        s.engine = EngineKind::Farm;
        s.loop.farmSize = 0;
    }));
}

TEST(ScenarioSpec, LeavesLoopKnobsToTheEngineValidator)
{
    // Each loop-engine knob has one range check, the engine's: validate()
    // runs validateFarmConfig() on farmConfigOf(), so a bad knob fails
    // here exactly when the FarmRuntime constructor would fail, NaN
    // and +inf included.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::function<void(ScenarioSpec &)>> edits = {
        [](ScenarioSpec &s) { s.loop.perServer.overProvision = -1.0; },
        [nan](ScenarioSpec &s) { s.loop.perServer.rhoB = nan; },
        [nan](ScenarioSpec &s) {
            s.strategy = "poet";
            s.loop.perServer.controller.emplace().processNoise = nan;
        },
        [nan](ScenarioSpec &s) {
            s.strategy = "poet";
            s.loop.perServer.controller.emplace().pole = nan;
        },
        [nan](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.faults = "mtbf";
            s.loop.mtbf = nan;
        },
        [nan](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.faults = "mtbf";
            s.loop.dropTimeout = nan;
        },
        // +inf must fail as well: α = +inf runs with a meaningless
        // budget, and poet aborts mid-run on an infinite process noise.
        [inf](ScenarioSpec &s) { s.loop.perServer.overProvision = inf; },
        [inf](ScenarioSpec &s) {
            s.strategy = "poet";
            s.loop.perServer.controller.emplace().processNoise = inf;
        },
        [inf](ScenarioSpec &s) {
            s.strategy = "poet";
            s.loop.perServer.controller.emplace().measurementNoise = inf;
        },
        // The candidate space and the loop's policies: an out-of-range
        // frequency stops the run mid-way, a NaN one runs at NaN power.
        [](ScenarioSpec &s) {
            s.loop.perServer.initialPolicy.frequency = 1.5;
        },
        [nan](ScenarioSpec &s) {
            s.loop.perServer.initialPolicy.frequency = nan;
        },
        [](ScenarioSpec &s) { s.loop.perServer.space.frequencies = {}; },
        [](ScenarioSpec &s) {
            s.loop.perServer.space.frequencies = {1.5};
        },
        [](ScenarioSpec &s) { s.loop.perServer.space.plans = {}; },
        [nan](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.control = "distributed";
            s.loop.perServer.space.frequencies = {nan, 1.0};
        },
        [](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.faults = "mtbf";
            s.loop.degradedPolicy.frequency = 0.0;
        },
        // Distributed control decides with the rate scaler alone, which
        // only moves the initial policy's frequency: the controller,
        // the pinned race-to-halt policy and the one-plan space would
        // each be dropped without a word.
        [](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.control = "distributed";
            s.strategy = "poet";
        },
        [](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.control = "distributed";
            s.strategy = "R2H(C6)";
        },
        [](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.control = "distributed";
            s.strategy = "SS(C3)";
        },
    };
    const PlatformModel xeon = PlatformModel::xeon();
    for (std::size_t i = 0; i < edits.size(); ++i) {
        EXPECT_TRUE(rejects(edits[i])) << "edit " << i;
        ScenarioSpec spec;
        edits[i](spec);
        EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), farmConfigOf(spec)),
                     ConfigError)
            << "edit " << i;
    }
    // The strategies whose rule the rate scaler keeps still run there.
    for (const std::string strategy : {"SS", "DVFS"}) {
        EXPECT_FALSE(rejects([&](ScenarioSpec &s) {
            s.engine = EngineKind::Farm;
            s.loop.control = "distributed";
            s.strategy = strategy;
        })) << strategy;
    }
    // A scenario's own fixed policy, valid or not, is refused: every
    // strategy patch resets or overwrites it, so the engine would never
    // see it. The race-to-halt strategies are the way to pin one.
    for (const std::string strategy : {"SS", "poet", "R2H(C6)"}) {
        for (const double f : {0.5, 1.5}) {
            EXPECT_TRUE(rejects([&](ScenarioSpec &s) {
                s.strategy = strategy;
                s.loop.perServer.fixedPolicy = Policy{
                    f, SleepPlan::immediate(LowPowerState::C6S0Idle)};
            })) << strategy << " f=" << f;
        }
    }
    // So only a config handed to the engine directly can carry a bad
    // fixed policy.
    FarmRuntimeConfig fixed;
    fixed.perServer.fixedPolicy =
        Policy{1.5, SleepPlan::immediate(LowPowerState::C6S0Idle)};
    EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), fixed), ConfigError);
}

TEST(ScenarioSpec, ControllerKnobsAreCheckedOnlyUnderPoet)
{
    // Only "poet" keeps the controller; every other strategy clears it,
    // so its knobs are neither used nor checked there.
    const auto zero_noise = [](const std::string &strategy) {
        return [strategy](ScenarioSpec &s) {
            s.strategy = strategy;
            s.loop.perServer.controller.emplace().processNoise = 0.0;
        };
    };
    EXPECT_FALSE(rejects(zero_noise("SS")));
    EXPECT_TRUE(rejects(zero_noise("poet")));
}

// ------------------------------------------------ loop configuration

TEST(ScenarioLoop, FarmConfigIsTheLoopPatchedAndSeeded)
{
    // farmConfigOf() copies spec.loop and changes only the strategy's
    // patch and the two seeds it derives from spec.seed.
    ScenarioSpec spec;
    spec.engine = EngineKind::Farm;
    spec.strategy = "SS(C3)";
    spec.seed = 17;
    spec.loop.farmSize = 6;
    spec.loop.dispatcher = "JSQ";
    spec.loop.control = "per-server";
    spec.loop.shards = 2;
    spec.loop.perServer.historyEpochs = 1;
    spec.loop.dispatchSeed = 99; // Derived, so overridden.
    FarmRuntimeConfig expected = spec.loop;
    expected.perServer =
        strategyConfigByName("SS(C3)", spec.loop.perServer);
    expected.dispatchSeed = mixSeed(17);
    expected.faultSeed = mixSeed(mixSeed(17));
    EXPECT_TRUE(farmConfigOf(spec) == expected);

    // The single-server engine runs the patched knobs on the one-server
    // farm and ignores the farm knobs.
    spec.engine = EngineKind::SingleServer;
    EXPECT_TRUE(farmConfigOf(spec) == singleServerFarm(expected.perServer));
}

TEST(ScenarioLoop, EveryLoopKnobReachesTheEngine)
{
    // Knobs no scenario field used to mirror reach the engine through
    // spec.loop.
    ScenarioSpec spec;
    spec.engine = EngineKind::Farm;
    spec.loop.perServer.evalLogCap = 123;
    spec.loop.perServer.historyEpochs = 2;
    spec.loop.perServer.initialPolicy =
        Policy{0.6, SleepPlan::immediate(LowPowerState::C3S0Idle)};
    spec.loop.correlatedGroup = 3;
    spec.loop.recoverySeconds = 12.5;
    spec.loop.retryBackoffCap = 30.0;
    spec.loop.faultScript = {{60.0, 1, true}, {300.0, 1, false}};
    const FarmRuntimeConfig config = farmConfigOf(spec);
    EXPECT_EQ(config.perServer.evalLogCap, 123u);
    EXPECT_EQ(config.perServer.historyEpochs, 2u);
    EXPECT_TRUE(config.perServer.initialPolicy ==
                spec.loop.perServer.initialPolicy);
    EXPECT_EQ(config.correlatedGroup, 3u);
    EXPECT_EQ(config.recoverySeconds, 12.5);
    EXPECT_EQ(config.retryBackoffCap, 30.0);
    EXPECT_TRUE(config.faultScript == spec.loop.faultScript);
}

TEST(ScenarioLoop, ScriptedFaultScenarioMatchesTheEngine)
{
    // A scripted outage set on the scenario runs exactly as the same
    // configuration does on FarmRuntime directly.
    const std::vector<FaultEvent> script = {{300.0, 1, true},
                                            {900.0, 1, false}};
    ScenarioSpec spec;
    spec.label = "scripted";
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "flat", .flatLevel = 0.3, .flatMinutes = 30};
    spec.predictor = "NP";
    spec.seed = 5;
    spec.loop.farmSize = 2;
    spec.loop.faults = "scripted";
    spec.loop.faultScript = script;
    spec.loop.recoverySeconds = 30.0;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);

    FarmRuntimeConfig config;
    config.farmSize = 2;
    config.dispatchSeed = mixSeed(5);
    config.faults = "scripted";
    config.faultScript = script;
    config.recoverySeconds = 30.0;
    config.perServer.overProvision = 0.35;
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace = spec.trace.realize();
    const FarmRuntime runtime(xeon, dns, config);
    TraceDrivenSource source(dns, trace, 5, 2.0);
    const auto predictor = makePredictor("NP", 10, trace.values());
    const FarmRuntimeResult direct = runtime.run(source, trace, *predictor);

    EXPECT_GT(direct.faults.downSeconds, 0.0);
    EXPECT_EQ(result.extra("down_s"), direct.faults.downSeconds);
    EXPECT_EQ(result.jobs, direct.total.arrivals);
    EXPECT_EQ(result.energy, direct.total.energy);
    EXPECT_EQ(result.meanResponse, direct.meanResponse());
}

// --------------------------------------------------------- sweep grids

ScenarioSpec
flatBase()
{
    ScenarioSpec spec;
    spec.label = "base";
    spec.trace = {.kind = "flat", .flatLevel = 0.15, .flatMinutes = 30};
    spec.loop.perServer.overProvision = 0.0;
    spec.predictor = "NP";
    spec.seed = 11;
    return spec;
}

TEST(ExpandGrid, CrossProductCountsAndLabels)
{
    const auto grid = expandGrid(
        flatBase(),
        {sweep("T", &RuntimeConfig::epochMinutes, {1, 5, 10, 15}),
         sweep("predictor", &ScenarioSpec::predictor, {"LC", "LMS", "NP"})});
    ASSERT_EQ(grid.size(), 12u);

    std::set<std::string> labels;
    for (const ScenarioSpec &spec : grid)
        labels.insert(spec.label);
    EXPECT_EQ(labels.size(), 12u); // every label unique

    // First axis outermost, second innermost.
    EXPECT_EQ(grid[0].loop.perServer.epochMinutes, 1u);
    EXPECT_EQ(grid[0].predictor, "LC");
    EXPECT_EQ(grid[1].predictor, "LMS");
    EXPECT_EQ(grid[3].loop.perServer.epochMinutes, 5u);
    EXPECT_EQ(grid.back().loop.perServer.epochMinutes, 15u);
    EXPECT_EQ(grid.back().predictor, "NP");
    EXPECT_EQ(grid[0].label, "base T=1 predictor=LC");
}

TEST(ExpandGrid, SharedSeedByDefaultDistinctWhenReseeding)
{
    const SweepAxis epochs =
        sweep("T", &RuntimeConfig::epochMinutes, {1, 5, 10});
    const auto shared = expandGrid(flatBase(), {epochs});
    for (const ScenarioSpec &spec : shared)
        EXPECT_EQ(spec.seed, 11u);

    const auto reseeded = expandGrid(flatBase(), {epochs}, true);
    std::set<std::uint64_t> seeds;
    for (const ScenarioSpec &spec : reseeded)
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), reseeded.size());
}

TEST(ExpandGrid, SweepLabelsPrintTheValue)
{
    // A point's label is its value streamed through an ostringstream,
    // so grid labels and result CSVs keep their established spelling.
    const auto labels = [](const SweepAxis &axis) {
        std::vector<std::string> printed;
        for (const auto &point : axis.points)
            printed.push_back(point.first);
        return printed;
    };
    EXPECT_EQ(labels(sweep("T", &RuntimeConfig::epochMinutes, {5, 15})),
              (std::vector<std::string>{"5", "15"}));
    EXPECT_EQ(labels(sweep("alpha", &RuntimeConfig::overProvision,
                           {0.0, 0.35})),
              (std::vector<std::string>{"0", "0.35"}));
    EXPECT_EQ(labels(sweep("burst_gap", &ScenarioSpec::burstMeanGap,
                           {0.5, std::numeric_limits<double>::infinity()})),
              (std::vector<std::string>{"0.5", "inf"}));
    EXPECT_EQ(labels(sweep("strategy", &ScenarioSpec::strategy,
                           {"R2H(C6)"})),
              (std::vector<std::string>{"R2H(C6)"}));

    // The mutator sets the swept field.
    const auto grid = expandGrid(
        flatBase(), {sweep("servers", &FarmRuntimeConfig::farmSize, {2, 8})});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[1].loop.farmSize, 8u);
    EXPECT_EQ(grid[1].label, "base servers=8");
}

TEST(ExpandGrid, EmptyAxisThrows)
{
    EXPECT_THROW(
        expandGrid(flatBase(), {sweep("predictor", &ScenarioSpec::predictor,
                                      {})}),
        ConfigError);
}

// ------------------------------------------------------------- running

TEST(ExperimentRunner, RejectsNonFiniteInputs)
{
    // Each edit once passed every check, ran, and reported a
    // meaningless result (no jobs offered and "within budget", or a
    // knob silently ignored); each is now rejected where its value is
    // checked.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<
        std::pair<std::string, std::function<void(ScenarioSpec &)>>>
        rows = {
            {"trace.flatLevel NaN",
             [nan](ScenarioSpec &s) { s.trace.flatLevel = nan; }},
            {"sourceRateScale NaN",
             [nan](ScenarioSpec &s) { s.sourceRateScale = nan; }},
            {"sourceUtilization NaN (stationary)",
             [nan](ScenarioSpec &s) {
                 s.source = "stationary";
                 s.sourceUtilization = nan;
             }},
            {"burstRateFactor NaN (bursty)",
             [nan](ScenarioSpec &s) {
                 s.source = "bursty";
                 s.burstRateFactor = nan;
             }},
            {"packingSpillBacklog NaN (farm, packing)",
             [nan](ScenarioSpec &s) {
                 s.engine = EngineKind::Farm;
                 s.loop.dispatcher = "packing";
                 s.loop.packingSpillBacklog = nan;
             }},
            {"optEpsilon +inf",
             [](ScenarioSpec &s) {
                 s.reportRegret = true;
                 s.optEpsilon = std::numeric_limits<double>::infinity();
             }},
        };
    for (const auto &[name, edit] : rows) {
        ScenarioSpec spec;
        spec.label = name;
        spec.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 20};
        spec.predictor = "NP";
        edit(spec);
        EXPECT_THROW(ExperimentRunner::runScenario(spec), ConfigError)
            << name;
    }
}

TEST(ScenarioSpec, RejectsInfiniteSourceKnobs)
{
    // An infinite rate scale or burst factor makes a source emit
    // endless jobs at one instant, so a run would exhaust memory, and
    // an infinite burst length turns the first burst into a permanent
    // load step. Each is rejected where it is checked, without running
    // a scenario.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(
        rejects([inf](ScenarioSpec &s) { s.sourceRateScale = inf; }));
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.2));
    EXPECT_THROW(StationarySource(dns, 0.2, 1, inf), ConfigError);
    EXPECT_THROW(TraceDrivenSource(dns, trace, 1, inf), ConfigError);
    EXPECT_THROW(BurstySource(dns, 0.2, 4.0, 120.0, 1800.0, 1, inf),
                 ConfigError);
    EXPECT_THROW(BurstySource(dns, 0.2, inf, 120.0, 1800.0, 1),
                 ConfigError);
    EXPECT_THROW(BurstySource(dns, 0.2, 4.0, inf, 1800.0, 1), ConfigError);
    EXPECT_THROW(BurstySource(dns, 0.2, 4.0, 120.0, inf, 1), ConfigError);
}

TEST(ExperimentRunner, ParallelRunBitMatchesSequential)
{
    // A mixed 2x2 grid (two strategies, two update intervals) over a
    // short flat trace: a sequential run and a 2-worker pooled run of
    // the same specs must agree bit for bit, because every random
    // stream is derived from the scenario's own seed.
    const std::vector<SweepAxis> axes = {
        sweep("strategy", &ScenarioSpec::strategy, {"SS", "R2H(C6)"}),
        sweep("T", &RuntimeConfig::epochMinutes, {5, 10}),
    };

    ExperimentRunner sequential(1);
    sequential.addGrid(flatBase(), axes);
    ExperimentRunner pooled(2);
    pooled.addGrid(flatBase(), axes);
    ASSERT_EQ(sequential.scenarios().size(), 4u);

    const auto a = sequential.run();
    const auto b = pooled.run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.label, b[i].spec.label);
        EXPECT_EQ(a[i].meanResponse, b[i].meanResponse) << i;
        EXPECT_EQ(a[i].p95Response, b[i].p95Response) << i;
        EXPECT_EQ(a[i].avgPower, b[i].avgPower) << i;
        EXPECT_EQ(a[i].energy, b[i].energy) << i;
        EXPECT_EQ(a[i].elapsed, b[i].elapsed) << i;
        EXPECT_EQ(a[i].jobs, b[i].jobs) << i;
        EXPECT_EQ(a[i].withinBudget, b[i].withinBudget) << i;
    }

    // And the comparison is meaningful: the strategies diverge.
    EXPECT_NE(a[0].avgPower, a[2].avgPower);
}

TEST(ExperimentRunner, ResultsExportUniformSchema)
{
    ExperimentRunner runner(2);
    ScenarioSpec single;
    single.label = "single one";
    single.trace = {.kind = "flat", .flatLevel = 0.15, .flatMinutes = 20};
    single.strategy = "R2H(C6)";
    single.predictor = "NP";
    single.seed = 5;
    runner.add(single);
    // A second row whose extras differ: only it times its decisions.
    ScenarioSpec timed = single;
    timed.label = "timed one";
    timed.strategy = "SS";
    timed.loop.perServer.recordDecisionTime = true;
    runner.add(timed);
    const auto results = runner.run();
    EXPECT_THROW(results[0].extra("decision_us_mean"), ConfigError);
    EXPECT_GE(results[1].extra("decision_us_mean"), 0.0);

    const std::string csv = resultsToCsvString(results);
    std::vector<std::string> lines;
    std::istringstream in(csv);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), results.size() + 1); // header + one per row
    // The union of extras becomes the trailing columns, in first-seen
    // order, so the untimed row pads the two decision columns blank
    // and every line has the header's width.
    const std::string header = lines[0];
    EXPECT_NE(header.find(",epochs,"), std::string::npos);
    const std::string tail = ",decision_us_mean,decision_us_p99";
    ASSERT_GE(header.size(), tail.size());
    EXPECT_EQ(header.substr(header.size() - tail.size()), tail);
    const auto commas = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',');
    };
    EXPECT_EQ(commas(lines[1]), commas(header));
    EXPECT_EQ(commas(lines[2]), commas(header));
    EXPECT_EQ(lines[1].rfind("single one,", 0), 0u) << lines[1];
    EXPECT_EQ(lines[1].substr(lines[1].size() - 2), ",,");
    EXPECT_EQ(lines[2].rfind("timed one,", 0), 0u) << lines[2];
    EXPECT_NE(lines[2].back(), ',');
}

TEST(ExperimentRunner, ReplicatedRunSmoke)
{
    // Lifetime/threading smoke of the replication layer (the full
    // statistical suite lives in statistics_test.cc, label "slow"):
    // a pooled replicated run over a small grid must produce one
    // summary per scenario with per-replication samples and CIs.
    ScenarioSpec base = flatBase();
    base.replications = 3;
    ExperimentRunner runner(2);
    runner.addGrid(
        base, {sweep("predictor", &ScenarioSpec::predictor, {"NP", "LC"})});

    const std::vector<ReplicatedResult> results =
        runner.runReplicated();
    ASSERT_EQ(results.size(), 2u);
    for (const ReplicatedResult &result : results) {
        ASSERT_EQ(result.replications.size(), 3u);
        EXPECT_EQ(result.metric("avg_power_w").count(), 3u);
        EXPECT_GT(result.metric("avg_power_w").mean(), 0.0);
        EXPECT_GE(result.metric("avg_power_w").ciHalfWidth(), 0.0);
    }
    // Paired comparison under common random numbers, pooled.
    const PairedComparison comparison =
        comparePaired(runner.scenarios()[0], runner.scenarios()[1], 2);
    EXPECT_EQ(comparison.delta("energy_j").count(), 3u);
}

/** Job sources built through the "counting-trace" test source. */
std::atomic<int> countingSourceBuilds{0};

TEST(ExperimentRunner, ValidatesEachQueuedScenarioOnce)
{
    // validate() builds a throwaway source and every run builds its
    // own, so the build count shows how often a scenario is validated:
    // once by add(), never again by run() or runReplicated().
    [[maybe_unused]] static const bool registered = [] {
        jobSourceRegistry().add(
            "counting-trace", [](const JobSourceConfig &config) {
                ++countingSourceBuilds;
                return makeJobSource("trace", config);
            });
        return true;
    }();
    ScenarioSpec spec = flatBase();
    spec.source = "counting-trace";

    countingSourceBuilds = 0;
    ExperimentRunner runner(1);
    runner.add(spec);
    runner.run();
    EXPECT_EQ(countingSourceBuilds, 2);

    countingSourceBuilds = 0;
    spec.replications = 3;
    ExperimentRunner replicated(1);
    replicated.add(spec);
    replicated.runReplicated();
    EXPECT_EQ(countingSourceBuilds, 4);

    // The public one-scenario entry point still validates.
    countingSourceBuilds = 0;
    ExperimentRunner::runScenario(spec);
    EXPECT_EQ(countingSourceBuilds, 2);
}

TEST(ExperimentRunner, CaptureEpochsProducesPerEpochTable)
{
    ScenarioSpec spec;
    spec.label = "epochs";
    spec.trace = {.kind = "flat", .flatLevel = 0.15, .flatMinutes = 20};
    spec.strategy = "R2H(C6)";
    spec.predictor = "NP";
    spec.seed = 5;
    spec.captureEpochs = true;
    const ScenarioResult result =
        ExperimentRunner::runScenario(spec);
    EXPECT_EQ(result.epochs.rows.size(), result.extra("epochs"));
    EXPECT_NO_THROW(result.epochs.column("avg_power_w"));

    // A farm captures its farm-level epochs the same way.
    spec.engine = EngineKind::Farm;
    spec.loop.farmSize = 2;
    const ScenarioResult farm = ExperimentRunner::runScenario(spec);
    EXPECT_EQ(farm.epochs.rows.size(), farm.extra("epochs"));
    EXPECT_GT(farm.epochs.rows.size(), 0u);
    EXPECT_EQ(farm.epochs.headers, result.epochs.headers);
}

TEST(ExperimentRunner, EveryRunListsAllFiveSelectedStates)
{
    // R2H(C6) always selects C6, so four of the five fractions are
    // zero; each must still be listed, or replicated summaries drop
    // the states some replications never select.
    ScenarioSpec spec = flatBase();
    spec.strategy = "R2H(C6)";
    for (const EngineKind engine :
         {EngineKind::SingleServer, EngineKind::Farm}) {
        spec.engine = engine;
        const ScenarioResult result = ExperimentRunner::runScenario(spec);
        double total = 0.0;
        for (LowPowerState state : allLowPowerStates)
            total += result.extra("state_" + toString(state));
        EXPECT_DOUBLE_EQ(total, 1.0) << toString(engine);
        EXPECT_EQ(result.extra("state_C6S0(i)"), 1.0) << toString(engine);
    }
}

TEST(ExperimentRunner, SingleServerScenarioIsAOneServerFarm)
{
    // The single-server engine is the paper's runtime on a one-server
    // farm: the same spec run as an explicit one-server farm
    // (round-robin, farm-wide, one decision thread) must agree in every
    // core field and every extra, key order included.
    ScenarioSpec single;
    single.label = "one";
    single.workload = "mail";
    single.trace = {.kind = "flat", .flatLevel = 0.3, .flatMinutes = 40};
    single.seed = 7;
    single.captureEpochs = true;
    ScenarioSpec farm = single;
    farm.engine = EngineKind::Farm;
    farm.loop.farmSize = 1;
    farm.loop.dispatcher = "round-robin";
    farm.loop.control = "farm-wide";
    farm.loop.decisionThreads = 1;

    const ScenarioResult a = ExperimentRunner::runScenario(single);
    const ScenarioResult b = ExperimentRunner::runScenario(farm);
    EXPECT_EQ(a.meanResponse, b.meanResponse);
    EXPECT_EQ(a.normalizedMean, b.normalizedMean);
    EXPECT_EQ(a.p95Response, b.p95Response);
    EXPECT_EQ(a.p99Response, b.p99Response);
    EXPECT_EQ(a.avgPower, b.avgPower);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.withinBudget, b.withinBudget);
    EXPECT_EQ(a.extras, b.extras);
    EXPECT_EQ(toCsv(a.epochs), toCsv(b.epochs));
    // The per-server breakdown stays farm-only.
    EXPECT_TRUE(a.servers.empty());
    ASSERT_EQ(b.servers.size(), 1u);
    EXPECT_EQ(b.servers[0].jobs, b.jobs);
}

} // namespace
} // namespace sleepscale
