/**
 * @file
 * Policy explorer: map the joint (frequency, sleep state) space for a
 * workload and utilization of your choice.
 *
 *   ./policy_explorer [workload] [rho] [rho_b]
 *
 *   workload  dns | mail | google      (default dns)
 *   rho       offered load in (0, 1)   (default 0.3)
 *   rho_b     peak design utilization  (default 0.8)
 *
 * Prints, for every sleep state, the optimal frequency and power with
 * and without the QoS constraint, plus the closed-form (idealized)
 * selection for comparison — a command-line version of the paper's
 * Figures 1 and 6.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "analytic/mm1_sleep.hh"
#include "core/policy_manager.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"

using namespace sleepscale;

int
main(int argc, char **argv)
try {
    const std::string name = argc > 1 ? argv[1] : "dns";
    const double rho = argc > 2 ? std::atof(argv[2]) : 0.3;
    const double rho_b = argc > 3 ? std::atof(argv[3]) : 0.8;
    if (rho <= 0.0 || rho >= 1.0 || rho_b <= 0.0 || rho_b >= 1.0) {
        std::cerr << "rho and rho_b must be in (0, 1)\n";
        return 1;
    }

    const WorkloadSpec workload = workloadByName(name);
    const PlatformModel platform = PlatformModel::xeon();
    const double mu = 1.0 / workload.serviceMean;
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(rho_b, workload.serviceMean);

    std::cout << "workload = " << workload.name << ", rho = " << rho
              << ", rho_b = " << rho_b << " (budget mu*E[R] = "
              << qos.budget() / workload.serviceMean << ")\n\n";

    StationarySource source(workload, rho, 7);
    const auto jobs = materialize(source, 20000);

    // Per-state optima, with and without the QoS cut.
    TablePrinter table({"state", "f* (unconstrained)", "E[P] [W]",
                        "f* (QoS)", "E[P] QoS [W]"});
    const auto grid = PolicySpace::frequencyGrid(0.12, 1.0, 0.01);
    for (LowPowerState state : allLowPowerStates) {
        double best_f = 1.0, best_p = 1e18;
        double qos_f = 1.0, qos_p = 1e18;
        for (double f : grid) {
            if (f <= rho + 0.01)
                continue;
            const Policy policy{f, SleepPlan::immediate(state)};
            const PolicyEvaluation eval = evaluatePolicy(
                platform, workload.scaling, policy, jobs);
            const double power = eval.avgPower();
            if (power < best_p) {
                best_p = power;
                best_f = f;
            }
            if (qos.satisfiedBy(eval.stats) && power < qos_p) {
                qos_p = power;
                qos_f = f;
            }
        }
        table.addRow({toString(state),
                      std::to_string(best_f).substr(0, 4),
                      std::to_string(best_p),
                      qos_p < 1e17 ? std::to_string(qos_f).substr(0, 4)
                                   : "infeasible",
                      qos_p < 1e17 ? std::to_string(qos_p) : "-"});
    }
    table.print(std::cout);

    // The joint selections.
    const PolicyManager manager(
        platform, workload.scaling,
        PolicySpace::allStates(grid), qos);
    const PolicyDecision empirical = manager.selectFromLog(jobs);
    const PolicyDecision ideal = manager.selectAnalytic(rho * mu, mu);
    std::cout << "\nSleepScale selection (empirical statistics): "
              << empirical.policy.toString() << " -> "
              << empirical.predictedPower << " W\n";
    std::cout << "Idealized model selection (closed forms):     "
              << ideal.policy.toString() << " -> "
              << ideal.predictedPower << " W\n";
    return 0;
} catch (const ConfigError &error) {
    std::cerr << error.what() << '\n';
    return 1;
}
