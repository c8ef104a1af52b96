#include "experiment/scenario.hh"

#include <sstream>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "farm/dispatcher.hh"
#include "fault/fault_source.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
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

void
ScenarioSpec::validate() const
{
    workloadRegistry().get(workload);
    platformRegistry().get(platform);
    fatalIf(trace.kind != "flat" && trace.days == 0,
            "ScenarioSpec '" + label + "': trace days must be >= 1");
    fatalIf(replications == 0,
            "ScenarioSpec '" + label + "': replications must be >= 1");
    switch (engine) {
      case EngineKind::SingleServer:
      case EngineKind::Farm:
        strategyRegistry().get(strategy);
        predictorRegistry().get(predictor);
        jobSourceRegistry().get(source);
        fatalIf(source == "replay" && replayPath.empty(),
                "ScenarioSpec '" + label +
                    "': the replay source needs a replayPath");
        fatalIf(!replayPath.empty() && source != "replay",
                "ScenarioSpec '" + label + "': replayPath '" +
                    replayPath + "' is set but the source is '" +
                    source + "' (set source to \"replay\")");
        fatalIf(sourceRateScale <= 0.0,
                "ScenarioSpec '" + label +
                    "': sourceRateScale must be positive");
        fatalIf(epochMinutes == 0,
                "ScenarioSpec '" + label + "': epochMinutes must be >= 1");
        fatalIf(rhoB <= 0.0 || rhoB >= 1.0,
                "ScenarioSpec '" + label + "': rhoB must be in (0, 1)");
        fatalIf(controllerProcessNoise <= 0.0 ||
                    controllerMeasurementNoise <= 0.0,
                "ScenarioSpec '" + label +
                    "': controller noise variances must be positive");
        fatalIf(controllerPole < 0.0 || controllerPole >= 1.0,
                "ScenarioSpec '" + label +
                    "': controllerPole must be in [0, 1)");
        fatalIf(controllerPeriod == 0,
                "ScenarioSpec '" + label +
                    "': controllerPeriod must be >= 1");
        break;
      case EngineKind::Multicore:
        fatalIf(cores == 0,
                "ScenarioSpec '" + label + "': cores must be >= 1");
        fatalIf(frequency <= 0.0 || frequency > 1.0,
                "ScenarioSpec '" + label +
                    "': frequency must be in (0, 1]");
        fatalIf(rho <= 0.0 || rho >= 1.0,
                "ScenarioSpec '" + label + "': rho must be in (0, 1)");
        fatalIf(jobCount == 0,
                "ScenarioSpec '" + label + "': jobCount must be >= 1");
        break;
    }
    if (engine == EngineKind::Farm) {
        dispatcherRegistry().get(dispatcher);
        fatalIf(farmSize == 0,
                "ScenarioSpec '" + label + "': farmSize must be >= 1");
        fatalIf(farmControl != "farm-wide" &&
                    farmControl != "per-server" &&
                    farmControl != "distributed",
                "ScenarioSpec '" + label + "': unknown farmControl '" +
                    farmControl +
                    "' (use \"farm-wide\", \"per-server\", or "
                    "\"distributed\")");
        fatalIf(!farmPlatforms.empty() &&
                    farmPlatforms.size() != farmSize,
                "ScenarioSpec '" + label + "': farmPlatforms lists " +
                    std::to_string(farmPlatforms.size()) +
                    " entries for a farm of " +
                    std::to_string(farmSize) +
                    " servers (one name per server, or none)");
        bool heterogeneous = false;
        for (const std::string &name : farmPlatforms) {
            platformRegistry().get(name);
            heterogeneous =
                heterogeneous || name != farmPlatforms.front();
        }
        fatalIf(heterogeneous && farmControl == "farm-wide",
                "ScenarioSpec '" + label +
                    "': a heterogeneous farmPlatforms mix needs "
                    "farmControl \"per-server\" or \"distributed\"");
        faultSourceRegistry().get(faults);
        if (faults != "none") {
            fatalIf(mtbf <= 0.0 || mttr <= 0.0,
                    "ScenarioSpec '" + label +
                        "': mtbf and mttr must be positive seconds");
            fatalIf(retryBackoff <= 0.0,
                    "ScenarioSpec '" + label +
                        "': retryBackoff must be positive seconds");
            fatalIf(dropTimeout <= 0.0,
                    "ScenarioSpec '" + label +
                        "': dropTimeout must be positive seconds");
        }
    } else {
        fatalIf(faults != "none",
                "ScenarioSpec '" + label +
                    "': fault injection needs the farm engine");
    }
    fatalIf(!(optEpsilon > 0.0),
            "ScenarioSpec '" + label + "': optEpsilon must be > 0");
    fatalIf(reportRegret && engine != EngineKind::SingleServer,
            "ScenarioSpec '" + label +
                "': reportRegret needs the single-server engine "
                "(the offline oracle replays one server's job log)");
}

} // namespace sleepscale
