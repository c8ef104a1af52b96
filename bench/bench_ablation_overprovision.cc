/**
 * @file
 * Ablation for the over-provisioning guard band (Section 5.2.3): sweep α
 * on the Figure 9 scenario and report the response/power trade. The
 * paper picks α = 0.35; this bench shows the knee the choice sits on.
 *
 * Expected: raising α lowers the mean response (headroom absorbs
 * mispredicted surges) at a modest power cost — modest because a faster
 * server also reaches its sleep state sooner.
 */

#include <iostream>

#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "util/rng.hh"
#include "util/table_printer.hh"
#include "workload/job_stream.hh"

using namespace sleepscale;

int
main()
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();

    const UtilizationTrace day = synthEmailStoreTrace(1, 20140614);
    const UtilizationTrace window = day.dailyWindow(2, 20);
    Rng rng(111);
    const auto jobs = generateTraceDrivenJobs(rng, dns, window);

    printBanner(std::cout,
                "Ablation: over-provisioning factor alpha (SS, DNS-like, "
                "email store)");

    TablePrinter table({"alpha", "mu*E[R]", "E[P] [W]",
                        "within budget?", "epochs boosted"});
    for (double alpha : {0.0, 0.1, 0.2, 0.35, 0.5, 0.75}) {
        const RuntimeConfig config = makeStrategyConfig(
            StrategyKind::SleepScale, 5, alpha, 0.8);
        const SleepScaleRuntime runtime(xeon, dns, config);
        LmsCusumPredictor predictor(10);
        const RuntimeResult result = runtime.run(jobs, window, predictor);

        std::size_t boosted = 0;
        for (const EpochReport &epoch : result.epochs)
            boosted += epoch.boosted ? 1 : 0;

        table.addRow(
            {std::to_string(alpha).substr(0, 4),
             std::to_string(result.meanResponse() / dns.serviceMean),
             std::to_string(result.avgPower()),
             result.withinBudget() ? "yes" : "no",
             std::to_string(boosted) + "/" +
                 std::to_string(result.epochs.size())});
    }
    table.print(std::cout);
    std::cout << "\nExpected: response falls and power creeps up with "
                 "alpha; the budget is met\nfrom roughly the paper's "
                 "alpha = 0.35.\n";
    return 0;
}
