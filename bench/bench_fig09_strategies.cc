/**
 * @file
 * Regenerates Figure 9: SleepScale against the conventional strategies —
 * SS(C3), DVFS-only, R2H(C3), R2H(C6) — on the DNS-like server following
 * the email-store trace (2AM-8PM window). All strategies run with the
 * LMS+CUSUM predictor (p = 10), T = 5 minutes, α = 0.35, ρ_b = 0.8.
 *
 * One declarative scenario, expanded over the registered strategies and
 * executed in parallel; every grid point shares the base seed, so all
 * strategies see identical job streams as in the paper.
 *
 * Expected (Section 6.1): SS achieves the lowest power while keeping the
 * mean response within the µE[R] = 5 budget; DVFS-only shows the largest
 * response times (it consumes the whole budget and has no headroom);
 * race-to-halt burns extra power at f = 1.
 *
 * Error-bar mode: `bench_fig09_strategies --replications N` (N >= 2)
 * replicates every strategy N times under derived seeds. Because the
 * grid shares one base seed, replication i of every strategy sees the
 * identical job stream (common random numbers), so the printed
 * power-savings deltas vs SS are paired-t confidence intervals
 * (docs/STATISTICS.md).
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

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
    base.label = "fig9";
    base.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
    base.loop.perServer.epochMinutes = 5;
    base.loop.perServer.overProvision = 0.35;
    base.loop.perServer.rhoB = 0.8;
    base.predictor = "LC";
    base.seed = 99;
    base.replications = replications;

    // The paper's Figure 9 order, not the registry's sorted one.
    ExperimentRunner runner;
    runner.addGrid(base, {sweep("strategy", &ScenarioSpec::strategy,
                                {"SS", "SS(C3)", "DVFS", "R2H(C3)",
                                 "R2H(C6)"})});

    printBanner(std::cout,
                "Figure 9: SleepScale vs conventional strategies");
    std::cout << "workload = DNS-like, trace = email store 2AM-8PM, "
                 "LC predictor (p = 10), T = 5 min,\nalpha = 0.35, "
                 "rho_b = 0.8 (budget mu*E[R] = 5)\n\n";

    if (replications > 1) {
        const auto replicated = runner.runReplicated();
        std::cout << replications
                  << " replications per strategy; mean ± 95% CI; "
                     "deltas vs SS are paired\n(common random "
                     "numbers: every strategy's replication i sees "
                     "the same job stream)\n\n";
        // The per-replication seeds are shared across the grid, so
        // the SS-vs-X power delta pairs replication-by-replication —
        // no rerun needed for the paired interval.
        const ReplicatedResult &ss = replicated.front();
        const auto &ss_power =
            ss.metric("avg_power_w").samples;
        TablePrinter table({"strategy", "mu*E[R] ± CI",
                            "E[P] [W] ± CI", "vs SS power ± CI",
                            "significant?", "viol%"});
        for (const ReplicatedResult &result : replicated) {
            const auto &power =
                result.metric("avg_power_w").samples;
            std::vector<double> delta_pct(power.size());
            for (std::size_t i = 0; i < power.size(); ++i)
                delta_pct[i] =
                    100.0 * (power[i] / ss_power[i] - 1.0);
            const MetricSummary delta{"vs_ss_power_pct",
                                      std::move(delta_pct)};
            table.addRow(
                {result.spec.strategy,
                 result.metric("normalized_mean").toString(),
                 result.metric("avg_power_w").toString(),
                 delta.toString(3),
                 &result == &ss ? "-"
                 : delta.excludesZero() ? "yes"
                                        : "no",
                 std::to_string(
                     100.0 *
                     result.metric("qos_violation").mean())});
        }
        table.print(std::cout);
        std::cout << "\nA 'yes' means the paired 95% CI on the power "
                     "delta excludes zero: the\nstrategy ordering is "
                     "statistically qualified, not anecdotal.\n";
        return 0;
    }

    const auto results = runner.run();
    const double ss_power = results.front().avgPower;

    TablePrinter table({"strategy", "mu*E[R]", "p95/mean svc",
                        "E[P] [W]", "vs SS power", "within budget?"});
    for (const ScenarioResult &result : results) {
        const double service_mean =
            result.meanResponse / result.normalizedMean;
        const double delta =
            100.0 * (result.avgPower / ss_power - 1.0);
        std::ostringstream cell;
        cell << (delta >= 0 ? "+" : "") << std::fixed
             << std::setprecision(1) << delta << "%";
        table.addRow({result.spec.strategy,
                      std::to_string(result.normalizedMean),
                      std::to_string(result.p95Response / service_mean),
                      std::to_string(result.avgPower), cell.str(),
                      result.withinBudget ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\nExpected: SS lowest power within budget; DVFS-only "
                 "wastes power (no deeper\nsleep states and no "
                 "sleep-vs-speed trade); R2H variants pay the f = 1 "
                 "power\npremium (Figure 9a/9b of the paper).\n";
    return 0;
} catch (const ConfigError &error) {
    std::cerr << error.what() << '\n';
    return 1;
}
