#include "core/strategies.hh"

namespace sleepscale {

namespace {

/** SleepScale's candidate search over the configured policy space. */
void
search(RuntimeConfig &config)
{
    config.controller.reset();
    config.fixedPolicy.reset();
}

/** SleepScale's search restricted to one immediate sleep state. */
StrategyPatch
searchWithin(LowPowerState state)
{
    return [state](RuntimeConfig &config) {
        search(config);
        config.space.plans = {SleepPlan::immediate(state)};
    };
}

/** Race-to-halt at f = 1 into `state`: no decisions at all. */
StrategyPatch
raceToHaltInto(LowPowerState state)
{
    return [state](RuntimeConfig &config) {
        config.controller.reset();
        config.fixedPolicy = raceToHalt(state);
    };
}

} // namespace

Registry<StrategyPatch> &
strategyRegistry()
{
    static Registry<StrategyPatch> registry = [] {
        Registry<StrategyPatch> r("strategy");
        r.add("SS", search);
        r.add("SS(C3)", searchWithin(LowPowerState::C3S0Idle));
        // The state a frequency governor gets with no C-state
        // management.
        r.add("DVFS", searchWithin(LowPowerState::C0IdleS0Idle));
        r.add("R2H(C3)", raceToHaltInto(LowPowerState::C3S0Idle));
        r.add("R2H(C6)", raceToHaltInto(LowPowerState::C6S0Idle));
        // The O(1) feedback controller over the full SleepScale
        // policy space (docs/CONTROL.md).
        r.add("poet", [](RuntimeConfig &config) {
            config.fixedPolicy.reset();
            if (!config.controller)
                config.controller.emplace();
        });
        return r;
    }();
    return registry;
}

RuntimeConfig
strategyConfigByName(const std::string &name, RuntimeConfig base)
{
    strategyRegistry().get(name)(base);
    return base;
}

} // namespace sleepscale
