#include "power/platform_model.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

WakeLatencyRange
wakeLatencyRange(LowPowerState state)
{
    // Table 4 of the paper (wake-up back to C0(a)S0(a)).
    switch (state) {
      case LowPowerState::C0IdleS0Idle:
        return {0.0, 0.0};
      case LowPowerState::C1S0Idle:
        return {1e-6, 10e-6};
      case LowPowerState::C3S0Idle:
        return {10e-6, 100e-6};
      case LowPowerState::C6S0Idle:
        return {0.1e-3, 1e-3};
      case LowPowerState::C6S3:
        return {1.0, 10.0};
    }
    panic("wakeLatencyRange: unknown LowPowerState");
}

PlatformModel::PlatformModel(std::string name, CpuPowerParams cpu,
                             PlatformPowerParams platform,
                             WakeLatencies wake)
    : _name(std::move(name)), _cpu(cpu), _platform(platform), _wake(wake)
{
    validate();
}

void
PlatformModel::validate() const
{
    fatalIf(_cpu.activeCoeff <= 0.0 || _cpu.idleCoeff <= 0.0 ||
                _cpu.haltCoeff <= 0.0 || _cpu.sleepPower <= 0.0 ||
                _cpu.deepSleepPower <= 0.0,
            "PlatformModel: CPU powers must be positive");
    fatalIf(_platform.s0Active <= 0.0 || _platform.s0Idle <= 0.0 ||
                _platform.s3 <= 0.0,
            "PlatformModel: platform powers must be positive");

    // Deeper states must consume less power (checked at f = 1) ...
    double previous_power = activePower(1.0);
    for (LowPowerState state : allLowPowerStates) {
        const double p = lowPower(state, 1.0);
        if (p >= previous_power)
            fatal("PlatformModel: power must strictly decrease with "
                  "sleep depth; violated at " + toString(state));
        previous_power = p;
    }

    // ... and take longer to wake up from.
    double previous_wake = -1.0;
    for (LowPowerState state : allLowPowerStates) {
        const double w = wakeLatency(state);
        if (w < previous_wake)
            fatal("PlatformModel: wake latency must not decrease with "
                  "sleep depth; violated at " + toString(state));
        fatalIf(w < 0.0, "PlatformModel: wake latencies must be >= 0");
        previous_wake = w;
    }
}

double
PlatformModel::activePower(double f) const
{
    fatalIf(!(f > 0.0 && f <= 1.0),
            "PlatformModel::activePower: f must be in (0, 1]");
    return _cpu.activeCoeff * f * f * f + _platform.s0Active;
}

double
PlatformModel::lowPower(LowPowerState state, double f) const
{
    fatalIf(!(f > 0.0 && f <= 1.0),
            "PlatformModel::lowPower: f must be in (0, 1]");
    switch (state) {
      case LowPowerState::C0IdleS0Idle:
        return _cpu.idleCoeff * f * f * f + _platform.s0Idle;
      case LowPowerState::C1S0Idle:
        return _cpu.haltCoeff * f * f + _platform.s0Idle;
      case LowPowerState::C3S0Idle:
        return _cpu.sleepPower + _platform.s0Idle;
      case LowPowerState::C6S0Idle:
        return _cpu.deepSleepPower + _platform.s0Idle;
      case LowPowerState::C6S3:
        return _cpu.deepSleepPower + _platform.s3;
    }
    panic("PlatformModel::lowPower: unknown LowPowerState");
}

double
PlatformModel::wakeLatency(LowPowerState state) const
{
    switch (state) {
      case LowPowerState::C0IdleS0Idle:
        return _wake.c0IdleS0Idle;
      case LowPowerState::C1S0Idle:
        return _wake.c1S0Idle;
      case LowPowerState::C3S0Idle:
        return _wake.c3S0Idle;
      case LowPowerState::C6S0Idle:
        return _wake.c6S0Idle;
      case LowPowerState::C6S3:
        return _wake.c6S3;
    }
    panic("PlatformModel::wakeLatency: unknown LowPowerState");
}

PlatformModel
PlatformModel::xeon()
{
    return PlatformModel("Xeon", CpuPowerParams{}, PlatformPowerParams{},
                         WakeLatencies{});
}

PlatformModel
PlatformModel::atom()
{
    // Synthetic Atom-class part: roughly 13x smaller CPU power envelope
    // than the Xeon preset, same platform and wake latencies. Preserves
    // the paper's "small processor power, relatively large platform
    // power" regime used for its qualitative Atom observations.
    CpuPowerParams cpu;
    cpu.activeCoeff = 10.0;
    cpu.idleCoeff = 5.5;
    cpu.haltCoeff = 3.5;
    cpu.sleepPower = 1.6;
    cpu.deepSleepPower = 1.0;
    return PlatformModel("Atom", cpu, PlatformPowerParams{},
                         WakeLatencies{});
}

Registry<PlatformFactory> &
platformRegistry()
{
    static Registry<PlatformFactory> registry = [] {
        Registry<PlatformFactory> r("platform");
        r.add("xeon", PlatformModel::xeon);
        r.add("atom", PlatformModel::atom);
        return r;
    }();
    return registry;
}

PlatformModel
platformByName(const std::string &name)
{
    return platformRegistry().get(name)();
}

} // namespace sleepscale
