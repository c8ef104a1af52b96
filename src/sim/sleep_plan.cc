#include "sim/sleep_plan.hh"

#include <algorithm>
#include <sstream>

#include "util/error.hh"

namespace sleepscale {

SleepPlan::SleepPlan(std::span<const SleepStage> stages)
    : _size(stages.size())
{
    fatalIf(stages.empty(), "SleepPlan: need at least one stage");
    fatalIf(stages.front().enterAfter != 0.0,
            "SleepPlan: the first stage must be entered immediately "
            "(enterAfter = 0); use a C0(i)S0(i) first stage to model a "
            "delayed descent");
    for (std::size_t i = 1; i < stages.size(); ++i) {
        // Negated so a NaN delay fails too.
        fatalIf(!(stages[i].enterAfter > stages[i - 1].enterAfter),
                "SleepPlan: entry delays must strictly increase");
        fatalIf(depthIndex(stages[i].state) <=
                    depthIndex(stages[i - 1].state),
                "SleepPlan: states must strictly deepen along the plan");
    }
    // Strictly deepening states fit one stage per state.
    std::copy(stages.begin(), stages.end(), _stages.begin());
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
    std::array<SleepStage, numLowPowerStates> stages{};
    stages[0] = {LowPowerState::C0IdleS0Idle, 0.0};
    for (std::size_t i = 0; i < delays.size(); ++i)
        stages[i + 1] = {allLowPowerStates[i + 1], delays[i]};
    return SleepPlan(stages);
}

std::string
SleepPlan::toString() const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < _size; ++i) {
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
    const std::span<const SleepStage> stages = plan.stages();
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
