/**
 * @file
 * Extension bench (paper Section 7 future work, multi-core direction):
 * package-gated sleep on a multi-core part, both panels as fixed
 * package policies evaluated on MulticoreSim over a stationary load:
 *
 *  (a) Package-delay sweep: how long to wait for *joint* idleness
 *      before dropping the platform to S3 — the multi-core analogue of
 *      the paper's lesson 4 (delays must be co-designed with frequency).
 *  (b) Core-count sweep at fixed total load: more cores improve
 *      response through parallelism but fragment idleness, shrinking
 *      package-S3 residency — the coupling that makes multi-core power
 *      management harder than N independent SleepScale instances.
 */

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "multicore/multicore_sim.hh"
#include "power/platform_model.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

using namespace sleepscale;

namespace {

/** Jobs each package run serves. */
constexpr std::size_t jobCount = 60000;

/**
 * One package run over `workload`: `cores` cores at per-core offered
 * load `rho` with the workload's gap shape, each idle core descending
 * straight to C6 at f = 1, and the platform dropping to S3 after
 * `package_delay` seconds of joint idleness.
 */
MulticoreStats
runPackage(const PlatformModel &platform, const WorkloadSpec &workload,
           std::size_t cores, double rho, double package_delay,
           std::uint64_t seed)
{
    // The package sees cores-times one core's load; utilities capped
    // to (0, 1) don't apply here, so the gap distribution is fitted
    // directly.
    const double total_load = rho * static_cast<double>(cores);
    StationarySource source(
        fitDistribution(workload.serviceMean / total_load,
                        workload.interArrivalCv),
        workload.makeService(), seed);
    MulticorePolicy policy;
    policy.frequency = 1.0;
    policy.corePlan = SleepPlan::immediate(LowPowerState::C6S0Idle);
    policy.packageSleepDelay = package_delay;
    return evaluateMulticorePolicy(platform, workload.scaling, cores,
                                   policy, source, jobCount);
}

/** Fraction of the run the platform spent in S3. */
double
s3Residency(const MulticoreStats &stats)
{
    return stats.elapsed > 0.0 ? stats.packageS3Time / stats.elapsed
                               : 0.0;
}

} // namespace

int
main()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const PlatformModel xeon = platformByName("xeon");
    const WorkloadSpec dns = workloadByName("dns").idealized();

    // ------------ (a) package-delay sweep, 4 cores ------------
    printBanner(std::cout,
                "Multicore (a): package S3 delay sweep (4 cores, "
                "DNS-like, per-core rho = 0.1)");

    TablePrinter delay_table({"package delay [s]", "mu*E[R]",
                              "E[P] [W]", "S3 residency",
                              "package wakes"});
    for (const double delay : {0.0, 0.5, 2.0, 10.0, inf}) {
        const MulticoreStats stats =
            runPackage(xeon, dns, 4, 0.1, delay, 60001);
        delay_table.addRow(
            {std::isfinite(delay) ? std::to_string(delay).substr(0, 4)
                                  : "inf",
             std::to_string(stats.response.mean() / dns.serviceMean),
             std::to_string(stats.avgPower()),
             std::to_string(s3Residency(stats)),
             std::to_string(stats.packageWakes)});
    }
    delay_table.print(std::cout);
    std::cout << "\nExpected: immediate S3 triggers a wake storm "
                 "(every busy period pays the 1 s\nexit at active "
                 "power) — *negative* savings, the guarded-gating "
                 "warning the\npaper cites [23]; a guard delay of a "
                 "few seconds recovers both power and\nresponse, and "
                 "very large delays forfeit the remaining S3 "
                 "residency.\n";

    // ------------ (b) core-count sweep, fixed total load ------------
    printBanner(std::cout,
                "Multicore (b): cores vs joint idleness (total load = "
                "0.8 of one core)");

    // Total load pinned to 0.8 of one core: per-core rho shrinks as
    // the core count grows, so the same job stream spreads thinner.
    TablePrinter core_table({"cores", "mu*E[R]", "E[P] [W]",
                             "S3 residency", "per-core busy"});
    for (const std::size_t cores : {1u, 2u, 4u, 8u}) {
        const double rho = 0.8 / static_cast<double>(cores);
        const MulticoreStats stats =
            runPackage(xeon, dns, cores, rho, 1.0, 60002);
        core_table.addRow({std::to_string(cores),
                           std::to_string(stats.response.mean() /
                                          dns.serviceMean),
                           std::to_string(stats.avgPower()),
                           std::to_string(s3Residency(stats)),
                           std::to_string(rho).substr(0, 5)});
    }
    core_table.print(std::cout);
    std::cout << "\nExpected: response improves sharply with cores "
                 "(parallelism) while joint\nidleness stays scarce — "
                 "the package couples what per-core SleepScale would\n"
                 "treat independently. (Watts are not comparable "
                 "across rows: the model\nsplits one package power "
                 "envelope across the cores; see "
                 "multicore_sim.hh.)\n";
    return 0;
}
