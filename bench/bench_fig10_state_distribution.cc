/**
 * @file
 * Regenerates Figure 10: the distribution of low-power states SleepScale
 * selects across {file server, email store} × {DNS, Google} × ρ_b ∈
 * {0.6, 0.8} (LC predictor p = 10, T = 5 minutes, α = 0.35).
 *
 * Expected (Section 6.2): the low, stable file-server trace mostly needs
 * a single state; the highly time-varying email store mixes C0(i)S0(i)
 * and C6S0(i); tightening ρ_b to 0.6 pushes selections toward deeper
 * states (faster processing creates more sleep opportunities).
 */

#include <iostream>

#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"

using namespace sleepscale;

int
main()
{
    const PlatformModel xeon = PlatformModel::xeon();

    struct TraceCase
    {
        std::string label;
        UtilizationTrace window;
    };
    const std::vector<TraceCase> traces = {
        {"fs", synthFileServerTrace(1, 20140614).dailyWindow(2, 20)},
        {"es", synthEmailStoreTrace(1, 20140614).dailyWindow(2, 20)},
    };

    printBanner(std::cout,
                "Figure 10: distribution of selected low-power states");
    std::cout << "LC predictor (p = 10), T = 5 min, alpha = 0.35; "
                 "fraction of decided epochs\n\n";

    std::vector<std::string> headers = {"case"};
    for (LowPowerState state : allLowPowerStates)
        headers.push_back(toString(state));
    TablePrinter table(std::move(headers));

    std::uint64_t seed = 1010;
    for (const TraceCase &trace_case : traces) {
        for (const WorkloadSpec &spec :
             {dnsWorkload(), googleWorkload()}) {
            TraceDrivenSource source(spec, trace_case.window, seed++);
            const auto jobs = materialize(source);
            for (double rho_b : {0.6, 0.8}) {
                RuntimeConfig knobs;
                knobs.overProvision = 0.35;
                knobs.rhoB = rho_b;
                knobs.evalLogCap = 3000;
                const RuntimeConfig config =
                    strategyConfigByName("SS", knobs);
                const SleepScaleRuntime runtime(xeon, spec, config);
                LmsCusumPredictor predictor(10);
                const RuntimeResult result =
                    runtime.run(jobs, trace_case.window, predictor);

                const auto fractions =
                    stateSelectionFractions(result.epochs);
                std::vector<std::string> row = {
                    trace_case.label + "/" + spec.name + "/rho_b=" +
                    std::to_string(rho_b).substr(0, 3)};
                for (double fraction : fractions)
                    row.push_back(std::to_string(fraction).substr(0, 5));
                table.addRow(row);
            }
        }
    }
    table.print(std::cout);

    std::cout << "\nExpected: fs cases concentrate on one state; es "
                 "cases mix C0(i)S0(i) and\nC6S0(i); rho_b = 0.6 shifts "
                 "mass toward deeper states.\n";
    return 0;
}
