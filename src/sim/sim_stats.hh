/**
 * @file
 * Accumulated simulation metrics.
 */

#ifndef SLEEPSCALE_SIM_SIM_STATS_HH
#define SLEEPSCALE_SIM_SIM_STATS_HH

#include <array>
#include <cstdint>

#include "power/low_power_state.hh"
#include "util/online_stats.hh"
#include "util/quantile_histogram.hh"

namespace sleepscale {

/**
 * Metrics gathered over a simulation window.
 *
 * Response-time means are exact (streaming); percentiles come from a
 * log-scale histogram with ~0.6% relative resolution, which is far below
 * the Monte-Carlo noise of any experiment in the paper.
 */
struct SimStats
{
    /** Window covered: [windowStart, windowEnd] in simulation time. */
    double windowStart = 0.0;
    double windowEnd = 0.0; ///< End of the window, seconds.

    /** Joules consumed inside the window. */
    double energy = 0.0;

    /** Seconds the server was busy (serving or waking). */
    double busyTime = 0.0;

    /** Seconds spent waking up (subset of busyTime, counted per job). */
    double wakeTime = 0.0;

    /** Seconds of idle residency per low-power state. */
    std::array<double, numLowPowerStates> idleResidency{};

    /** Wake-up events per low-power state. */
    std::array<std::uint64_t, numLowPowerStates> wakeups{};

    /** Jobs that arrived inside the window. */
    std::uint64_t arrivals = 0;

    /** Jobs whose response time was recorded (departed in the window). */
    std::uint64_t completions = 0;

    /** Exact streaming response-time moments (seconds). */
    OnlineStats response;

    /** Response-time histogram for percentiles (seconds). */
    QuantileHistogram responseHistogram;

    /** Wall-clock span of the window. */
    double elapsed() const { return windowEnd - windowStart; }

    /** Average power over the window, watts. */
    double avgPower() const;

    /** Total idle time across all low-power states. */
    double idleTime() const;

    /** Mean response time, seconds. */
    double meanResponse() const { return response.mean(); }

    /** Approximate p-th percentile response time, seconds. */
    double responsePercentile(double p) const;

    /** Merge a later, adjacent window into this one. */
    void merge(const SimStats &later);
};

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_SIM_STATS_HH
