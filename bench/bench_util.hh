/**
 * @file
 * Shared helpers for the per-figure bench harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper: it
 * runs the same experiment (or the closest synthetic equivalent, see
 * DESIGN.md) and prints the rows/series the paper plots. These helpers
 * implement the recurring pieces: idealized and empirical job synthesis
 * (Section 4.1 methodology) and frequency sweeps of candidate policies.
 */

#ifndef SLEEPSCALE_BENCH_BENCH_UTIL_HH
#define SLEEPSCALE_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace bench {

/** Jobs for the idealized model: Poisson arrivals, exponential service. */
inline std::vector<Job>
idealJobs(const WorkloadSpec &spec, double rho, std::size_t count,
          std::uint64_t seed)
{
    StationarySource source(
        std::make_unique<ExponentialDist>(spec.serviceMean / rho),
        std::make_unique<ExponentialDist>(spec.serviceMean), seed);
    return materialize(source, count);
}

/** Jobs matching the workload's empirical (mean, Cv) statistics. */
inline std::vector<Job>
empiricalJobs(const WorkloadSpec &spec, double rho, std::size_t count,
              std::uint64_t seed)
{
    StationarySource source(spec, rho, seed);
    return materialize(source, count);
}

/** One point of a frequency sweep. */
struct SweepPoint
{
    double frequency;
    double normalizedResponse; ///< µ E[R].
    double power;              ///< E[P], watts.
};

/**
 * Sweep a sleep plan across frequencies over a fixed job list
 * (the paper's Section 4.1 curve construction).
 */
inline std::vector<SweepPoint>
sweepFrequencies(const PlatformModel &platform, const WorkloadSpec &spec,
                 const SleepPlan &plan, const std::vector<Job> &jobs,
                 double f_min, double f_step = 0.01)
{
    std::vector<SweepPoint> curve;
    for (double f = f_min; f <= 1.0 + 1e-9; f += f_step) {
        const double clamped = std::min(f, 1.0);
        const PolicyEvaluation eval =
            evaluatePolicy(platform, spec.scaling, Policy{clamped, plan},
                           jobs);
        curve.push_back({clamped,
                         eval.meanResponse() / spec.serviceMean,
                         eval.avgPower()});
    }
    return curve;
}

/** The bowl bottom: minimum-power point of a sweep. */
inline SweepPoint
bowlOptimum(const std::vector<SweepPoint> &curve)
{
    SweepPoint best = curve.front();
    for (const SweepPoint &point : curve) {
        if (point.power < best.power)
            best = point;
    }
    return best;
}

/** Minimum power among points meeting a normalized-response budget. */
inline SweepPoint
constrainedOptimum(const std::vector<SweepPoint> &curve, double budget)
{
    SweepPoint best{1.0, 0.0, 1e18};
    bool found = false;
    for (const SweepPoint &point : curve) {
        if (point.normalizedResponse <= budget &&
            point.power < best.power) {
            best = point;
            found = true;
        }
    }
    if (!found) {
        // Infeasible: fall back to the fastest point.
        for (const SweepPoint &point : curve) {
            if (!found || point.normalizedResponse <
                              best.normalizedResponse) {
                best = point;
                found = true;
            }
        }
    }
    return best;
}

} // namespace bench
} // namespace sleepscale

#endif // SLEEPSCALE_BENCH_BENCH_UTIL_HH
