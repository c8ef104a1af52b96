/**
 * @file
 * Extension bench (paper Section 7 future work, multi-core direction):
 * package-gated sleep on a multi-core part, both panels as declarative
 * sweep grids over the multicore engine:
 *
 *  (a) Package-delay sweep: how long to wait for *joint* idleness
 *      before dropping the platform to S3 — the multi-core analogue of
 *      the paper's lesson 4 (delays must be co-designed with frequency).
 *  (b) Core-count sweep at fixed total load: more cores improve
 *      response through parallelism but fragment idleness, shrinking
 *      package-S3 residency — the coupling that makes multi-core power
 *      management harder than N independent SleepScale instances.
 */

#include <iostream>
#include <limits>

#include "experiment/runner.hh"

using namespace sleepscale;

int
main()
{
    constexpr double inf = std::numeric_limits<double>::infinity();

    // ------------ (a) package-delay sweep, 4 cores ------------
    printBanner(std::cout,
                "Multicore (a): package S3 delay sweep (4 cores, "
                "DNS-like, per-core rho = 0.1)");

    ScenarioSpec delay_base;
    delay_base.label = "mc";
    delay_base.engine = EngineKind::Multicore;
    delay_base.idealizedWorkload = true;
    delay_base.cores = 4;
    delay_base.frequency = 1.0;
    delay_base.coreState = LowPowerState::C6S0Idle;
    delay_base.rho = 0.1;
    delay_base.jobCount = 60000;
    delay_base.seed = 60001;

    ExperimentRunner delay_runner;
    delay_runner.addGrid(
        delay_base,
        {sweep("pkg_delay", &ScenarioSpec::packageSleepDelay,
               {0.0, 0.5, 2.0, 10.0, inf})});
    const auto delay_results = delay_runner.run();

    TablePrinter delay_table({"package delay [s]", "mu*E[R]",
                              "E[P] [W]", "S3 residency",
                              "package wakes"});
    for (const ScenarioResult &result : delay_results) {
        const double delay = result.spec.packageSleepDelay;
        delay_table.addRow(
            {std::isfinite(delay) ? std::to_string(delay).substr(0, 4)
                                  : "inf",
             std::to_string(result.normalizedMean),
             std::to_string(result.avgPower),
             std::to_string(result.extra("s3_residency")),
             std::to_string(static_cast<std::uint64_t>(
                 result.extra("package_wakes")))});
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

    ScenarioSpec core_base;
    core_base.label = "mc";
    core_base.engine = EngineKind::Multicore;
    core_base.idealizedWorkload = true;
    core_base.frequency = 1.0;
    core_base.coreState = LowPowerState::C6S0Idle;
    core_base.packageSleepDelay = 1.0;
    core_base.jobCount = 60000;
    core_base.seed = 60002;

    // Total load pinned to 0.8 of one core: per-core rho shrinks as
    // the core count grows, so the same job stream spreads thinner.
    SweepAxis core_axis = customAxis("cores", {});
    for (std::size_t cores : {1u, 2u, 4u, 8u}) {
        core_axis.points.emplace_back(
            std::to_string(cores), [cores](ScenarioSpec &spec) {
                spec.cores = cores;
                spec.rho = 0.8 / static_cast<double>(cores);
            });
    }

    ExperimentRunner core_runner;
    core_runner.addGrid(core_base, {core_axis});
    const auto core_results = core_runner.run();

    TablePrinter core_table({"cores", "mu*E[R]", "E[P] [W]",
                             "S3 residency", "per-core busy"});
    for (const ScenarioResult &result : core_results) {
        core_table.addRow(
            {std::to_string(result.spec.cores),
             std::to_string(result.normalizedMean),
             std::to_string(result.avgPower),
             std::to_string(result.extra("s3_residency")),
             std::to_string(result.spec.rho).substr(0, 5)});
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
