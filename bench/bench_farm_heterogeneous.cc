/**
 * @file
 * Extension bench: autonomous per-server farm control on heterogeneous
 * platform mixes — the regime the farm-wide thinned-log path cannot
 * express. Three panels:
 *
 *  (a) Control-mode comparability: on a symmetric homogeneous farm the
 *      "farm-wide" and "per-server" modes make the same decisions, so
 *      their power/response columns coincide — the paper's Section 7
 *      scale-out conjecture as a measurable identity.
 *  (b) big/little mix: a xeon/atom farm under per-server control, with
 *      the per-server breakdown showing each half settling on its own
 *      (frequency, sleep-state) operating point.
 *  (c) Skewed dispatch: the packing dispatcher concentrates load, and
 *      the autonomous controllers respond with divergent per-server
 *      rate decisions (the distributed-rate-scaling regime).
 */

#include <iostream>

#include "experiment/runner.hh"

using namespace sleepscale;

namespace {

/** A four-server farm over the email-store day, 2AM-8PM. */
ScenarioSpec
farmBase(const std::string &label)
{
    ScenarioSpec spec;
    spec.label = label;
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
    spec.loop.perServer.overProvision = 0.35;
    spec.loop.perServer.rhoB = 0.8;
    spec.predictor = "LC";
    spec.loop.farmSize = 4;
    spec.loop.dispatcher = "random";
    spec.seed = 4040;
    return spec;
}

} // namespace

int
main()
{
    // ---------------- (a) control-mode comparability ----------------
    printBanner(std::cout,
                "Heterogeneous farm (a): farm-wide vs per-server "
                "control, 4 identical xeons, email-store 2AM-8PM");

    ExperimentRunner mode_runner;
    mode_runner.addGrid(
        farmBase("modes"),
        {sweep("control", &FarmRuntimeConfig::control,
               {"farm-wide", "per-server"})});
    const auto mode_results = mode_runner.run();
    resultsTable(mode_results).print(std::cout);
    std::cout << "\nExpected: the rows agree to within sampling noise "
                 "— per-server\ncontrol reproduces the farm-wide "
                 "decisions when the farm is symmetric\nand homogeneous "
                 "(tests/farm_per_server_test.cc pins the exact-match\n"
                 "cases).\n";

    // ---------------- (b) big/little platform mix ----------------
    printBanner(std::cout,
                "Heterogeneous farm (b): 2x xeon + 2x atom under "
                "per-server control");

    ScenarioSpec mixed_spec = farmBase("big.LITTLE");
    mixed_spec.loop.control = "per-server";
    mixed_spec.loop.platforms = {"xeon", "xeon", "atom", "atom"};
    const ScenarioResult mixed = ExperimentRunner::runScenario(mixed_spec);
    resultsTable({mixed}).print(std::cout);
    std::cout << '\n';
    serversTable(mixed).print(std::cout);
    std::cout << "\nExpected: the atom half draws a fraction of the "
                 "xeon half's watts;\neach platform settles on its own "
                 "operating point.\n";

    // ---------------- (c) skewed dispatch ----------------
    printBanner(std::cout,
                "Heterogeneous farm (c): packing dispatcher skews "
                "load; autonomous controllers diverge");

    ScenarioSpec packed_spec = farmBase("packed");
    packed_spec.loop.dispatcher = "packing";
    packed_spec.loop.packingSpillBacklog = 2.0;
    packed_spec.loop.control = "per-server";
    const ScenarioResult packed =
        ExperimentRunner::runScenario(packed_spec);
    resultsTable({packed}).print(std::cout);
    std::cout << '\n';
    serversTable(packed).print(std::cout);
    std::cout << "\nExpected: dispatched-job counts fall off sharply "
                 "with the server\nindex, and the per-server operating "
                 "points diverge: spill-fed servers\nsee bursty logs "
                 "and defend QoS at high frequency while the packed\n"
                 "head of the farm carries the sustained load.\n";
    return 0;
}
