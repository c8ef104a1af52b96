/**
 * @file
 * Cluster scaling: put SleepScale behind a load balancer.
 *
 * The farm extension as one declarative scenario — N DNS-like servers
 * behind a registered dispatcher, each power-managed by SleepScale —
 * executed through the unified experiment API.
 *
 *   ./cluster_scaling [dispatcher] [servers]
 *
 *   dispatcher  a registered dispatcher name          (default packing)
 *   servers     farm size                             (default 4)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "experiment/runner.hh"
#include "farm/dispatcher.hh"
#include "util/error.hh"

using namespace sleepscale;

int
main(int argc, char **argv)
{
    const std::string dispatcher = argc > 1 ? argv[1] : "packing";
    const std::size_t servers =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
    if (servers == 0 || servers > 64) {
        std::cerr << "servers must be in [1, 64]\n";
        return 1;
    }

    try {
        ScenarioSpec spec;
        spec.label = "cluster " + dispatcher;
        spec.engine = EngineKind::Farm;
        spec.workload = "dns";
        spec.trace = {.kind = "es", .seed = 99, .windowStartHour = 2,
                      .windowEndHour = 14};
        spec.loop.perServer.epochMinutes = 5;
        spec.loop.perServer.overProvision = 0.35;
        spec.loop.perServer.rhoB = 0.8;
        spec.predictor = "LC";
        spec.loop.farmSize = servers;
        spec.loop.dispatcher = dispatcher;
        spec.loop.packingSpillBacklog = 2.0;
        spec.seed = 17;

        const ScenarioResult result =
            ExperimentRunner::runScenario(spec);

        std::cout << servers << " servers, dispatcher = " << dispatcher
                  << ", " << result.jobs << " jobs over "
                  << result.elapsed / 3600.0 << " h\n\n";

        TablePrinter table({"metric", "value"});
        table.addRow({std::string("farm power"),
                      std::to_string(result.avgPower) + " W"});
        table.addRow({std::string("per-server power"),
                      std::to_string(result.extra("per_server_w")) +
                          " W"});
        table.addRow({std::string("mu*E[R]"),
                      std::to_string(result.normalizedMean)});
        table.addRow({std::string("within budget"),
                      result.withinBudget ? "yes" : "no"});
        table.print(std::cout);

        std::cout << "\nJobs per server:";
        for (const ServerResultSummary &server : result.servers)
            std::cout << ' ' << server.jobs;
        std::cout << '\n';
        std::cout << "(packing concentrates work so lightly used "
                     "servers sleep; JSQ balances for\nresponse time — "
                     "registered dispatchers: "
                  << dispatcherRegistry().namesCsv() << ")\n";
        return 0;
    } catch (const ConfigError &error) {
        std::cerr << error.what() << '\n';
        return 1;
    }
}
