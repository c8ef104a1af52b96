#include "sim/sim_stats.hh"

#include "util/error.hh"

namespace sleepscale {

double
SimStats::avgPower() const
{
    const double span = elapsed();
    return span > 0.0 ? energy / span : 0.0;
}

double
SimStats::idleTime() const
{
    double total = 0.0;
    for (double t : idleResidency)
        total += t;
    return total;
}

double
SimStats::responsePercentile(double p) const
{
    return responseHistogram.percentile(p);
}

void
SimStats::merge(const SimStats &later)
{
    if (later.elapsed() == 0.0 && later.completions == 0)
        return;
    if (elapsed() == 0.0 && completions == 0 && arrivals == 0) {
        *this = later;
        return;
    }
    windowEnd = later.windowEnd;
    energy += later.energy;
    busyTime += later.busyTime;
    wakeTime += later.wakeTime;
    for (std::size_t i = 0; i < idleResidency.size(); ++i) {
        idleResidency[i] += later.idleResidency[i];
        wakeups[i] += later.wakeups[i];
    }
    arrivals += later.arrivals;
    completions += later.completions;
    response.merge(later.response);
    responseHistogram.merge(later.responseHistogram);
}

} // namespace sleepscale
