/**
 * @file
 * Regenerates Figure 8: average response time under different utilization
 * predictors (LC = LMS+CUSUM, LMS, NP = naive-previous, Offline) and
 * policy update intervals T ∈ {1, 5, 10, 15} minutes, with no over-
 * provisioning (α = 0). DNS-like server following the email-store trace
 * over the paper's 2AM-8PM window, ρ_b = 0.8 (budget µE[R] = 5).
 *
 * The whole figure is one declarative scenario expanded against a
 * T × predictor grid and executed in parallel by ExperimentRunner.
 *
 * Expected shape: smaller T gives smaller response time; Offline is the
 * floor; LC ≈ NP ≤ LMS; without over-provisioning every causal predictor
 * exceeds the budget (the paper's point motivating α = 0.35).
 *
 * Error-bar mode: `bench_fig08_predictors --replications N` (N >= 2)
 * replicates every grid point N times under derived seeds and prints
 * mean ± 95% CI per cell, so predictor orderings come statistically
 * qualified (docs/STATISTICS.md).
 */

#include <iostream>

#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "util/cli_args.hh"
#include "util/error.hh"

using namespace sleepscale;

int
main(int argc, char **argv)
try {
    // The one bench option: --replications N (N >= 2 = error bars).
    // CliArgs rejects typos and non-numeric values loudly.
    const CliArgs args(argc, argv, {"replications"});
    const std::size_t replications = args.getUnsigned("replications", 1);
    ScenarioSpec base;
    base.label = "fig8";
    base.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
    base.strategy = "SS";
    base.loop.perServer.overProvision = 0.0;
    base.loop.perServer.rhoB = 0.8;
    base.seed = 88;
    base.replications = replications;

    ExperimentRunner runner;
    runner.addGrid(base,
                   {sweep("T", &RuntimeConfig::epochMinutes, {1, 5, 10, 15}),
                    sweep("predictor", &ScenarioSpec::predictor,
                          {"LC", "LMS", "NP", "Offline"})});

    printBanner(std::cout,
                "Figure 8: mean response vs predictor and update "
                "interval (alpha = 0)");
    std::cout << "workload = DNS-like, trace = email store 2AM-8PM, "
                 "rho_b = 0.8, budget mu*E[R] = 5\n\n";

    if (replications > 1) {
        const auto results = runner.runReplicated();
        std::cout << replications
                  << " replications per cell; mean ± 95% CI\n\n";
        TablePrinter table({"T [min]", "predictor", "mu*E[R] ± CI",
                            "viol%"});
        for (const ReplicatedResult &result : results) {
            table.addRow(
                {std::to_string(result.spec.loop.perServer.epochMinutes),
                 result.spec.predictor,
                 result.metric("normalized_mean").toString(),
                 std::to_string(
                     100.0 *
                     result.metric("qos_violation").mean())});
        }
        table.print(std::cout);
        std::cout << "\nCI from Student-t over per-replication means; "
                     "seeds derived per replication\n(common across "
                     "cells, so columns are paired).\n";
        return 0;
    }

    const auto results = runner.run();

    TablePrinter table({"T [min]", "predictor", "mu*E[R]",
                        "within budget?"});
    for (const ScenarioResult &result : results) {
        table.addRow({std::to_string(result.spec.loop.perServer.epochMinutes),
                      result.spec.predictor,
                      std::to_string(result.normalizedMean),
                      result.withinBudget ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\nExpected: response shrinks with smaller T; Offline "
                 "is the floor; causal\npredictors exceed the budget "
                 "without over-provisioning (Section 6.1).\n";
    return 0;
} catch (const ConfigError &error) {
    std::cerr << error.what() << '\n';
    return 1;
}
