#include "core/runtime.hh"

namespace sleepscale {

std::array<double, numLowPowerStates>
RuntimeResult::stateSelectionFractions() const
{
    std::array<double, numLowPowerStates> fractions{};
    std::size_t decided = 0;
    for (const EpochReport &epoch : epochs) {
        if (!epoch.decided)
            continue;
        ++decided;
        ++fractions[depthIndex(epoch.policy.plan.deepest())];
    }
    if (decided == 0)
        return fractions;
    for (double &fraction : fractions)
        fraction /= static_cast<double>(decided);
    return fractions;
}

CsvTable
epochsToCsv(const RuntimeResult &result)
{
    CsvTable table;
    table.headers = {"epoch",     "start_s",    "predicted_util",
                     "measured_util", "frequency", "state_depth",
                     "boosted",   "feasible",   "degraded",
                     "mean_response_s", "p95_response_s",
                     "avg_power_w", "completions"};
    for (const EpochReport &epoch : result.epochs) {
        table.addRow({static_cast<double>(epoch.index), epoch.startTime,
                      epoch.predictedUtilization,
                      epoch.measuredUtilization, epoch.policy.frequency,
                      static_cast<double>(
                          depthIndex(epoch.policy.plan.deepest())),
                      epoch.boosted ? 1.0 : 0.0,
                      epoch.feasible ? 1.0 : 0.0,
                      epoch.degraded ? 1.0 : 0.0,
                      epoch.stats.meanResponse(),
                      epoch.stats.responsePercentile(95.0),
                      epoch.stats.avgPower(),
                      static_cast<double>(epoch.stats.completions)});
    }
    return table;
}

} // namespace sleepscale
