#include "experiment/scenario.hh"

#include <cmath>
#include <sstream>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

std::string
toString(EngineKind kind)
{
    switch (kind) {
      case EngineKind::SingleServer:
        return "single";
      case EngineKind::Farm:
        return "farm";
      case EngineKind::Multicore:
        return "multicore";
    }
    panic("toString: unknown EngineKind");
}

UtilizationTrace
TraceSpec::realize() const
{
    UtilizationTrace trace;
    if (kind == "es") {
        trace = synthEmailStoreTrace(days, seed);
    } else if (kind == "fs") {
        trace = synthFileServerTrace(days, seed);
    } else if (kind == "flat") {
        fatalIf(flatMinutes == 0,
                "TraceSpec: a flat trace needs flatMinutes >= 1");
        trace = UtilizationTrace(
            "flat", std::vector<double>(flatMinutes, flatLevel));
    } else {
        trace = UtilizationTrace::load(kind);
    }
    if (windowStartHour != 0 || windowEndHour != 24)
        trace = trace.dailyWindow(windowStartHour, windowEndHour);
    return trace;
}

std::string
TraceSpec::label() const
{
    std::ostringstream out;
    if (kind == "flat") {
        out << "flat(" << flatLevel << ")";
    } else {
        out << kind;
        if (windowStartHour != 0 || windowEndHour != 24)
            out << "[" << windowStartHour << "," << windowEndHour << ")";
    }
    return out.str();
}

namespace {

StrategyKnobs
knobsOf(const ScenarioSpec &spec)
{
    StrategyKnobs knobs;
    knobs.epochMinutes = spec.epochMinutes;
    knobs.overProvision = spec.overProvision;
    knobs.rhoB = spec.rhoB;
    knobs.qosMetric = spec.qosMetric;
    knobs.controllerProcessNoise = spec.controllerProcessNoise;
    knobs.controllerMeasurementNoise = spec.controllerMeasurementNoise;
    knobs.controllerPole = spec.controllerPole;
    knobs.controllerPeriodEpochs = spec.controllerPeriod;
    return knobs;
}

/**
 * The checks of validate(), without the scenario label. The loop
 * engines' knobs are left to validateFarmConfig(); only what that
 * validator cannot see is checked here.
 */
void
checkSpec(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    platformRegistry().get(spec.platform);
    fatalIf(spec.trace.kind != "flat" && spec.trace.days == 0,
            "trace days must be >= 1");
    fatalIf(spec.replications == 0, "replications must be >= 1");
    fatalIf(!(spec.optEpsilon > 0.0) || !std::isfinite(spec.optEpsilon),
            "optEpsilon must be positive and finite");
    fatalIf(spec.faults != "none" && spec.engine != EngineKind::Farm,
            "fault injection needs the farm engine");
    fatalIf(spec.reportRegret && spec.engine != EngineKind::SingleServer,
            "reportRegret needs the single-server engine (the offline "
            "oracle replays one server's job log)");
    if (spec.engine == EngineKind::Multicore) {
        fatalIf(spec.cores == 0, "cores must be >= 1");
        fatalIf(!(spec.frequency > 0.0 && spec.frequency <= 1.0),
                "frequency must be in (0, 1]");
        fatalIf(!(spec.rho > 0.0 && spec.rho < 1.0),
                "rho must be in (0, 1)");
        fatalIf(spec.jobCount == 0, "jobCount must be >= 1");
        return;
    }
    predictorRegistry().get(spec.predictor);
    jobSourceRegistry().get(spec.source);
    fatalIf(spec.source == "replay" && spec.replayPath.empty(),
            "the replay source needs a replayPath");
    fatalIf(!spec.replayPath.empty() && spec.source != "replay",
            "replayPath '" + spec.replayPath +
                "' is set but the source is '" + spec.source +
                "' (set source to \"replay\")");
    fatalIf(!(spec.sourceRateScale > 0.0) ||
                !std::isfinite(spec.sourceRateScale),
            "sourceRateScale must be positive and finite");
    validateFarmConfig(farmConfigOf(spec), workload);
}

} // namespace

void
ScenarioSpec::validate() const
{
    // One wrapper names the scenario in every rejection, whichever
    // layer raised it.
    try {
        checkSpec(*this);
    } catch (const ConfigError &error) {
        fatalIn("ScenarioSpec '" + label + "'", error);
    }
}

FarmRuntimeConfig
farmConfigOf(const ScenarioSpec &spec)
{
    RuntimeConfig per_server =
        strategyConfigByName(spec.strategy, knobsOf(spec));
    per_server.recordDecisionTime = spec.recordDecisionTime;
    FarmRuntimeConfig config = singleServerFarm(std::move(per_server));
    if (spec.engine != EngineKind::Farm)
        return config;
    config.farmSize = spec.farmSize;
    config.dispatcher = spec.dispatcher;
    config.packingSpillBacklog = spec.packingSpillBacklog;
    config.control = spec.farmControl;
    config.platforms = spec.farmPlatforms;
    config.decisionThreads = spec.decisionThreads;
    config.shards = spec.farmShards;
    config.tailHistograms = spec.tailHistograms;
    // Decorrelated from the job-generation stream, which uses the raw
    // seed: identical seeds would put both generators in lock-step.
    config.dispatchSeed = mixSeed(spec.seed);
    config.faults = spec.faults;
    config.mtbf = spec.mtbf;
    config.mttr = spec.mttr;
    config.retryBackoff = spec.retryBackoff;
    config.dropTimeout = spec.dropTimeout;
    // A third decorrelated stream: the fault schedule must not move
    // when job or dispatch randomness does (and replication seeds flow
    // through spec.seed, so paired fault/no-fault comparisons share
    // schedules per replication).
    config.faultSeed = mixSeed(config.dispatchSeed);
    return config;
}

} // namespace sleepscale
