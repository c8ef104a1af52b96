/**
 * @file
 * Data-center day: run SleepScale against race-to-halt over a full
 * synthetic email-store day (the paper's Section 6 experiment in
 * miniature), printing an hour-by-hour picture of what the runtime
 * decided and the end-of-day comparison.
 *
 * Both strategies are one declarative scenario each; the hour-by-hour
 * view reads straight from the captured per-epoch table.
 *
 * The second act shows the streaming workload API: two trace-driven
 * tenants and a nightly backup-burst injection merged into one
 * composite JobSource and streamed through the runtime epoch by epoch
 * — the mixed stream is never materialized.
 *
 *   ./datacenter_day
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/runtime.hh"
#include "experiment/runner.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

using namespace sleepscale;

int
main()
{
    try {
        const ScenarioSpec base = ScenarioBuilder("day")
                                      .workload("dns")
                                      .trace("es")
                                      .traceSeed(424242)
                                      .window(2, 20)
                                      .epochMinutes(5)
                                      .overProvision(0.35)
                                      .rhoB(0.8)
                                      .predictor("LC")
                                      .seed(5)
                                      .captureEpochs()
                                      .build();

        ExperimentRunner runner;
        runner.addGrid(base, {sweepStrategies({"SS", "R2H(C6)"})});
        const auto results = runner.run();
        const ScenarioResult &ss = results[0];
        const ScenarioResult &r2h = results[1];

        std::cout << "email-store day, 2AM-8PM window: " << ss.jobs
                  << " jobs\n\n";

        // Hour-by-hour view of the controller's behaviour, from the
        // captured per-epoch CSV.
        const auto start = ss.epochs.column("start_s");
        const auto util = ss.epochs.column("measured_util");
        const auto freq = ss.epochs.column("frequency");
        const auto power = ss.epochs.column("avg_power_w");
        const auto response = ss.epochs.column("mean_response_s");
        const auto completions = ss.epochs.column("completions");
        const double service_mean = ss.meanResponse / ss.normalizedMean;

        TablePrinter hours({"hour", "load", "f (last epoch)", "mu*E[R]",
                            "E[P] [W]"});
        const std::size_t epochs_per_hour =
            60 / base.epochMinutes;
        for (std::size_t h = 0; h * epochs_per_hour < start.size();
             ++h) {
            const std::size_t lo = h * epochs_per_hour;
            const std::size_t hi = std::min(
                (h + 1) * epochs_per_hour, start.size());
            // Responses are job-weighted across the hour's epochs
            // (epochs are equal length, so power averages directly).
            double load = 0.0, hour_power = 0.0;
            double hour_response = 0.0, hour_jobs = 0.0;
            for (std::size_t e = lo; e < hi; ++e) {
                load += util[e];
                hour_power += power[e];
                hour_response += response[e] * completions[e];
                hour_jobs += completions[e];
            }
            const double n = static_cast<double>(hi - lo);
            const double mean_response =
                hour_jobs > 0.0 ? hour_response / hour_jobs : 0.0;
            hours.addRow(
                {std::to_string(h + 2) + ":00",
                 std::to_string(load / n).substr(0, 4),
                 std::to_string(freq[hi - 1]).substr(0, 4),
                 std::to_string(mean_response / service_mean),
                 std::to_string(hour_power / n)});
        }
        hours.print(std::cout);

        // The end-of-day comparison against race-to-halt.
        const double day_hours = ss.elapsed / 3600.0;
        std::cout << "\nEnd of day:\n";
        std::cout << "  SleepScale : " << ss.avgPower << " W avg, "
                  << ss.avgPower * day_hours / 1000.0
                  << " kWh, mu*E[R] = " << ss.normalizedMean
                  << (ss.withinBudget ? " (within budget)\n"
                                      : " (over budget)\n");
        std::cout << "  R2H(C6)    : " << r2h.avgPower << " W avg, "
                  << r2h.avgPower * day_hours / 1000.0
                  << " kWh, mu*E[R] = " << r2h.normalizedMean << "\n";
        std::cout << "  Savings    : "
                  << 100.0 * (1.0 - ss.avgPower / r2h.avgPower)
                  << "% power\n";

        // ---- Composable streaming sources --------------------------
        // Two trace-driven tenants (the email store plus a second,
        // file-server-shaped tenant) and a backup process that fires
        // hour-scale arrival bursts, merged into one stream. merge()
        // interleaves by arrival time with a deterministic tie-break,
        // and the runtime pulls the mix epoch by epoch.
        const PlatformModel xeon = PlatformModel::xeon();
        const WorkloadSpec dns = workloadByName("dns");
        const UtilizationTrace day =
            synthEmailStoreTrace(1, 424242).dailyWindow(2, 20);
        const UtilizationTrace second_day =
            synthFileServerTrace(1, 424243).dailyWindow(2, 20);

        std::vector<std::unique_ptr<JobSource>> tenants;
        tenants.push_back(
            std::make_unique<TraceDrivenSource>(dns, day, 11));
        tenants.push_back(
            std::make_unique<TraceDrivenSource>(dns, second_day, 12));
        // Backup bursts: a low baseline that surges to 8x its arrival
        // rate in ~5-minute episodes roughly once an hour, cut off at
        // the end of the evaluation window.
        tenants.push_back(until(
            std::make_unique<BurstySource>(dns, 0.05, 8.0, 300.0,
                                           3600.0, 13),
            day.duration()));
        auto mix = merge(std::move(tenants));

        RuntimeConfig config;
        config.epochMinutes = 5;
        config.overProvision = 0.35;
        const SleepScaleRuntime streaming(xeon, dns, config);
        const auto predictor = makePredictor("LC", 10, day.values());
        const RuntimeResult mixed =
            streaming.run(*mix, day, *predictor);

        std::cout << "\nMerged tenants + backup bursts (streamed, "
                     "never materialized):\n"
                  << "  jobs       : " << mixed.total.arrivals << "\n"
                  << "  mu*E[R]    : "
                  << mixed.meanResponse() / dns.serviceMean << "\n"
                  << "  avg power  : " << mixed.avgPower() << " W"
                  << (mixed.withinBudget() ? " (within budget)\n"
                                           : " (over budget)\n");
        return 0;
    } catch (const ConfigError &error) {
        std::cerr << error.what() << '\n';
        return 1;
    }
}
