#include "experiment/scenario.hh"

#include <cmath>
#include <sstream>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace sleepscale {

std::string
toString(EngineKind kind)
{
    switch (kind) {
      case EngineKind::SingleServer:
        return "single";
      case EngineKind::Farm:
        return "farm";
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

/**
 * The checks of validate(), without the scenario label. The loop
 * engines' knobs are left to validateFarmConfig() and the source knobs
 * to the source's own constructor; only what those cannot see is
 * checked here.
 */
void
checkSpec(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadOf(spec);
    platformRegistry().get(spec.platform);
    fatalIf(spec.trace.kind != "flat" && spec.trace.days == 0,
            "trace days must be >= 1");
    fatalIf(spec.replications == 0, "replications must be >= 1");
    fatalIf(!(spec.optEpsilon > 0.0) || !std::isfinite(spec.optEpsilon),
            "optEpsilon must be positive and finite");
    fatalIf(spec.loop.faults != "none" && spec.engine != EngineKind::Farm,
            "fault injection needs the farm engine");
    // Every strategy patch resets or overwrites the fixed policy, so a
    // scenario's own would be dropped without a word.
    fatalIf(spec.loop.perServer.fixedPolicy.has_value(),
            "loop.perServer.fixedPolicy is set, but the strategy decides "
            "the policy; pin one with a race-to-halt strategy "
            "(\"R2H(C3)\", \"R2H(C6)\") or register a strategy patch "
            "that sets it");
    fatalIf(spec.reportRegret && spec.engine != EngineKind::SingleServer,
            "reportRegret needs the single-server engine (the offline "
            "oracle replays one server's job log)");
    predictorRegistry().get(spec.predictor);
    jobSourceRegistry().get(spec.source);
    fatalIf(spec.source == "replay" && spec.replayPath.empty(),
            "the replay source needs a replayPath");
    fatalIf(!spec.replayPath.empty() && spec.source != "replay",
            "replayPath '" + spec.replayPath +
                "' is set but the source is '" + spec.source +
                "' (set source to \"replay\")");
    validateFarmConfig(farmConfigOf(spec), workload);
    // A throwaway source over the realized trace checks the trace and
    // the source knobs, as validateFarmConfig() checks the dispatcher.
    sourceOf(spec, workload, spec.trace.realize());
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
        strategyConfigByName(spec.strategy, spec.loop.perServer);
    if (spec.engine != EngineKind::Farm)
        return singleServerFarm(std::move(per_server));
    FarmRuntimeConfig config = spec.loop;
    config.perServer = std::move(per_server);
    // Decorrelated from the job-generation stream, which uses the raw
    // seed: identical seeds would put both generators in lock-step.
    config.dispatchSeed = mixSeed(spec.seed);
    // A third decorrelated stream: the fault schedule must not move
    // when job or dispatch randomness does (and replication seeds flow
    // through spec.seed, so paired fault/no-fault comparisons share
    // schedules per replication).
    config.faultSeed = mixSeed(config.dispatchSeed);
    return config;
}

WorkloadSpec
workloadOf(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    return spec.idealizedWorkload ? workload.idealized() : workload;
}

std::unique_ptr<JobSource>
sourceOf(const ScenarioSpec &spec, const WorkloadSpec &workload,
         const UtilizationTrace &trace)
{
    const double aggregate_scale =
        spec.engine == EngineKind::Farm && spec.source != "replay"
            ? static_cast<double>(spec.loop.farmSize)
            : 1.0;
    JobSourceConfig config;
    config.workload = workload;
    config.trace = trace;
    config.utilization = spec.sourceUtilization;
    config.rateScale = spec.sourceRateScale * aggregate_scale;
    config.burstRateFactor = spec.burstRateFactor;
    config.burstMeanLength = spec.burstMeanLength;
    config.burstMeanGap = spec.burstMeanGap;
    config.replayPath = spec.replayPath;
    config.seed = spec.seed;
    return makeJobSource(spec.source, config);
}

} // namespace sleepscale
