#include "core/strategies.hh"

namespace sleepscale {

namespace {

/** The knobs every strategy copies; the policy space is the full
 * SleepScale one (all five states x the frequency grid). */
RuntimeConfig
sharedConfig(const StrategyKnobs &knobs)
{
    RuntimeConfig config;
    config.epochMinutes = knobs.epochMinutes;
    config.overProvision = knobs.overProvision;
    config.rhoB = knobs.rhoB;
    config.qosMetric = knobs.qosMetric;
    config.searchThreads = knobs.searchThreads;
    return config;
}

/** SleepScale's search restricted to one immediate sleep state. */
StrategyFactory
searchWithin(LowPowerState state)
{
    return [state](const StrategyKnobs &knobs) {
        RuntimeConfig config = sharedConfig(knobs);
        config.space = PolicySpace::singlePlan(SleepPlan::immediate(state));
        return config;
    };
}

/** Race-to-halt at f = 1 into `state`: no decisions at all. */
StrategyFactory
raceToHaltInto(LowPowerState state)
{
    return [state](const StrategyKnobs &knobs) {
        RuntimeConfig config = sharedConfig(knobs);
        config.fixedPolicy = raceToHalt(state);
        return config;
    };
}

} // namespace

Registry<StrategyFactory> &
strategyRegistry()
{
    static Registry<StrategyFactory> registry = [] {
        Registry<StrategyFactory> r("strategy");
        r.add("SS", sharedConfig);
        r.add("SS(C3)", searchWithin(LowPowerState::C3S0Idle));
        // The state a frequency governor gets with no C-state
        // management.
        r.add("DVFS", searchWithin(LowPowerState::C0IdleS0Idle));
        r.add("R2H(C3)", raceToHaltInto(LowPowerState::C3S0Idle));
        r.add("R2H(C6)", raceToHaltInto(LowPowerState::C6S0Idle));
        // The O(1) feedback controller over the full SleepScale
        // policy space (docs/CONTROL.md).
        r.add("poet", [](const StrategyKnobs &knobs) {
            RuntimeConfig config = sharedConfig(knobs);
            ControllerConfig controller;
            controller.processNoise = knobs.controllerProcessNoise;
            controller.measurementNoise =
                knobs.controllerMeasurementNoise;
            controller.pole = knobs.controllerPole;
            controller.periodEpochs = knobs.controllerPeriodEpochs;
            config.controller = controller;
            return config;
        });
        return r;
    }();
    return registry;
}

RuntimeConfig
strategyConfigByName(const std::string &name, const StrategyKnobs &knobs)
{
    return strategyRegistry().get(name)(knobs);
}

} // namespace sleepscale
