#include "sim/sleep_plan.hh"

#include <algorithm>
#include <sstream>

#include "util/error.hh"

namespace sleepscale {

SleepPlan::SleepPlan(std::vector<SleepStage> stages)
    : _stages(std::move(stages))
{
    fatalIf(_stages.empty(), "SleepPlan: need at least one stage");
    fatalIf(_stages.front().enterAfter != 0.0,
            "SleepPlan: the first stage must be entered immediately "
            "(enterAfter = 0); use a C0(i)S0(i) first stage to model a "
            "delayed descent");
    for (std::size_t i = 1; i < _stages.size(); ++i) {
        // Negated so a NaN delay fails too.
        fatalIf(!(_stages[i].enterAfter > _stages[i - 1].enterAfter),
                "SleepPlan: entry delays must strictly increase");
        fatalIf(depthIndex(_stages[i].state) <=
                    depthIndex(_stages[i - 1].state),
                "SleepPlan: states must strictly deepen along the plan");
    }
}

SleepPlan
SleepPlan::immediate(LowPowerState state)
{
    return SleepPlan({{state, 0.0}});
}

SleepPlan
SleepPlan::delayed(LowPowerState state, double delay)
{
    // The constructor rejects a delay that is not > 0 (NaN included)
    // and a state no deeper than C0(i)S0(i).
    return SleepPlan({{LowPowerState::C0IdleS0Idle, 0.0}, {state, delay}});
}

SleepPlan
SleepPlan::throttleBack(const std::vector<double> &delays)
{
    fatalIf(delays.size() != numLowPowerStates - 1,
            "SleepPlan::throttleBack: need one delay per state after "
            "C0(i)S0(i)");
    std::vector<SleepStage> stages;
    stages.push_back({LowPowerState::C0IdleS0Idle, 0.0});
    for (std::size_t i = 0; i < delays.size(); ++i)
        stages.push_back({allLowPowerStates[i + 1], delays[i]});
    return SleepPlan(std::move(stages));
}

std::string
SleepPlan::toString() const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < _stages.size(); ++i) {
        if (i)
            out << "->";
        out << sleepscale::toString(_stages[i].state);
        if (_stages[i].enterAfter > 0.0)
            out << "@" << _stages[i].enterAfter;
    }
    return out.str();
}

MaterializedPlan::MaterializedPlan(const SleepPlan &plan,
                                   const PlatformModel &platform, double f)
{
    const auto &stages = plan.stages();
    fatalIf(stages.size() > maxStages,
            "MaterializedPlan: plan has more stages than low-power states");
    _size = stages.size();
    for (std::size_t i = 0; i < _size; ++i) {
        _power[i] = platform.lowPower(stages[i].state, f);
        _enterAfter[i] = stages[i].enterAfter;
        _wake[i] = platform.wakeLatency(stages[i].state);
        _state[i] = stages[i].state;
    }
    for (std::size_t i = 1; i < _size; ++i) {
        _cumEnergy[i] = _cumEnergy[i - 1] +
                        _power[i - 1] * (_enterAfter[i] -
                                         _enterAfter[i - 1]);
    }
}

std::size_t
MaterializedPlan::stageAt(double elapsed) const
{
    if (elapsed < 0.0)
        fatal("MaterializedPlan::stageAt: negative idle time");
    const double *begin = _enterAfter.data();
    return static_cast<std::size_t>(
               std::upper_bound(begin + 1, begin + _size, elapsed) -
               begin) -
           1;
}

} // namespace sleepscale
