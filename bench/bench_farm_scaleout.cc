/**
 * @file
 * Extension bench (paper Section 7 future work): SleepScale on a
 * multi-server farm, both panels expressed as declarative sweep grids
 * over the farm engine:
 *
 *  (a) Dispatcher study at fixed farm size: how routing shapes power
 *      and response when every back-end runs SleepScale. Packing
 *      concentrates idleness (deep sleep headroom) at some response
 *      cost; JSQ does the opposite.
 *  (b) Scale-out study: farm size sweep at fixed per-server load,
 *      SleepScale vs race-to-halt — per-server savings persist at
 *      scale, which is the paper's conjecture.
 */

#include <iomanip>
#include <iostream>
#include <sstream>

#include "experiment/runner.hh"
#include "farm/dispatcher.hh"

using namespace sleepscale;

int
main()
{
    // ---------------- (a) dispatcher study ----------------
    printBanner(std::cout,
                "Farm extension (a): dispatcher study, 4 servers, "
                "email-store 2AM-8PM, DNS-like");

    ScenarioSpec dispatch_base;
    dispatch_base.label = "farm";
    dispatch_base.engine = EngineKind::Farm;
    dispatch_base.trace = {
        .kind = "es", .windowStartHour = 2, .windowEndHour = 20};
    dispatch_base.loop.perServer.overProvision = 0.35;
    dispatch_base.loop.perServer.rhoB = 0.8;
    dispatch_base.predictor = "LC";
    dispatch_base.loop.farmSize = 4;
    dispatch_base.loop.packingSpillBacklog = 2.0;
    dispatch_base.seed = 2020;

    ExperimentRunner dispatch_runner;
    dispatch_runner.addGrid(
        dispatch_base,
        {sweep("dispatcher", &FarmRuntimeConfig::dispatcher,
               dispatcherRegistry().names())});
    const auto dispatch_results = dispatch_runner.run();

    TablePrinter dispatch_table({"dispatcher", "mu*E[R]",
                                 "farm E[P] [W]", "per-server [W]",
                                 "within budget?"});
    for (const ScenarioResult &result : dispatch_results) {
        dispatch_table.addRow(
            {result.spec.loop.dispatcher,
             std::to_string(result.normalizedMean),
             std::to_string(result.avgPower),
             std::to_string(result.extra("per_server_w")),
             result.withinBudget ? "yes" : "no"});
    }
    dispatch_table.print(std::cout);

    // ---------------- (b) scale-out study ----------------
    printBanner(std::cout,
                "Farm extension (b): SleepScale vs race-to-halt across "
                "farm sizes (flat rho = 0.2)");

    ScenarioSpec scale_base;
    scale_base.label = "scaleout";
    scale_base.engine = EngineKind::Farm;
    scale_base.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 120};
    scale_base.loop.perServer.overProvision = 0.35;
    scale_base.loop.perServer.rhoB = 0.8;
    scale_base.predictor = "LC";
    scale_base.loop.dispatcher = "random";

    // Each farm size draws its own job stream (seed tied to the size),
    // while SS and R2H at the same size share it for a fair comparison.
    SweepAxis size_axis{"servers", {}};
    for (std::size_t size : {1u, 2u, 4u, 8u, 16u}) {
        size_axis.points.emplace_back(
            std::to_string(size), [size](ScenarioSpec &spec) {
                spec.loop.farmSize = size;
                spec.seed = 3030 + size;
            });
    }

    ExperimentRunner scale_runner;
    scale_runner.addGrid(scale_base,
                         {size_axis,
                          sweep("strategy", &ScenarioSpec::strategy,
                                {"SS", "R2H(C6)"})});
    const auto scale_results = scale_runner.run();

    TablePrinter scale_table({"servers", "SS per-server [W]",
                              "R2H(C6) per-server [W]", "savings"});
    for (std::size_t i = 0; i + 1 < scale_results.size(); i += 2) {
        const ScenarioResult &ss = scale_results[i];
        const ScenarioResult &r2h = scale_results[i + 1];
        const double ss_per = ss.extra("per_server_w");
        const double r2h_per = r2h.extra("per_server_w");
        std::ostringstream savings;
        savings << std::fixed << std::setprecision(1)
                << 100.0 * (1.0 - ss_per / r2h_per) << "%";
        scale_table.addRow({std::to_string(ss.spec.loop.farmSize),
                            std::to_string(ss_per),
                            std::to_string(r2h_per), savings.str()});
    }
    scale_table.print(std::cout);
    std::cout << "\nExpected: per-server savings are roughly "
                 "size-independent — SleepScale\nscales out by running "
                 "per server, as the paper conjectures.\n";
    return 0;
}
