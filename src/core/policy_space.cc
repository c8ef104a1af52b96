#include "core/policy_space.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

std::vector<double>
PolicySpace::frequencyGrid(double lo, double hi, double step)
{
    fatalIf(!(lo > 0.0 && lo <= hi && hi <= 1.0),
            "PolicySpace::frequencyGrid: need 0 < lo <= hi <= 1");
    fatalIf(!(step > 0.0), "PolicySpace::frequencyGrid: step must be > 0");
    std::vector<double> grid;
    for (double f = lo; f < hi - 1e-12; f += step)
        grid.push_back(f);
    grid.push_back(hi);
    return grid;
}

PolicySpace
PolicySpace::standard()
{
    return allStates(frequencyGrid(0.30, 1.0, 0.05));
}

PolicySpace
PolicySpace::allStates(std::vector<double> frequencies)
{
    PolicySpace space;
    space.frequencies = std::move(frequencies);
    for (LowPowerState state : allLowPowerStates)
        space.plans.push_back(SleepPlan::immediate(state));
    return space;
}

} // namespace sleepscale
