/**
 * @file
 * Quickstart: the declarative experiment API in one screen.
 *
 * Describes a scenario once — workload, trace, platform, QoS — then
 * sweeps the named power-management strategies over it through
 * ExperimentRunner. Every engine (single server, farm, multicore) and
 * every component (strategy, predictor, dispatcher, workload, platform)
 * is selected by registry name, so a new comparison is a new axis, not
 * a new driver loop.
 *
 * This example doubles as the canonical smoke test of the experiment
 * API: it runs in ctest, so regressions in the declarative entry point
 * surface in tier-1.
 *
 *   ./quickstart
 */

#include <algorithm>
#include <iostream>

#include "core/strategies.hh"
#include "experiment/runner.hh"
#include "util/error.hh"

using namespace sleepscale;

int
main()
{
    try {
        // One declarative scenario: a DNS-like server at a flat 10%
        // offered load on the paper's Xeon-class platform, managed
        // every 5 minutes against the rho_b = 0.8 QoS budget.
        // Every field left unset keeps its default.
        ScenarioSpec base;
        base.label = "quickstart";
        base.workload = "dns";
        base.platform = "xeon";
        base.trace = {.kind = "flat", .flatLevel = 0.1, .flatMinutes = 60};
        base.loop.perServer.epochMinutes = 5;
        base.loop.perServer.overProvision = 0.0;
        base.loop.perServer.rhoB = 0.8;
        base.predictor = "LC";
        base.seed = 1;

        // Sweep the registered strategies over it, in parallel.
        ExperimentRunner runner;
        runner.addGrid(
            base,
            {sweep("strategy", &ScenarioSpec::strategy,
                   {"SS", "DVFS", "R2H(C6)"})});
        const auto results = runner.run();

        resultsTable(results).print(std::cout);

        // The uniform result schema keeps comparisons one-liners.
        const ScenarioResult &ss = results.front();
        double worst = 0.0;
        for (const ScenarioResult &result : results)
            worst = std::max(worst, result.avgPower);
        std::cout << "\nSleepScale (SS) runs at " << ss.avgPower
                  << " W, " << 100.0 * (1.0 - ss.avgPower / worst)
                  << "% below the most expensive strategy, over "
                  << ss.jobs << " jobs.\n";
        std::cout << "Registered strategies: "
                  << strategyRegistry().namesCsv() << "\n";

        // Sanity for ctest: SS must beat race-to-halt on power while
        // the comparison stayed on identical job streams.
        if (!(ss.avgPower < worst) || ss.jobs == 0) {
            std::cerr << "quickstart: unexpected experiment outcome\n";
            return 1;
        }
        return 0;
    } catch (const ConfigError &error) {
        std::cerr << error.what() << '\n';
        return 1;
    }
}
