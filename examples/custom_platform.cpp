/**
 * @file
 * Custom platform: the library is not tied to the paper's Xeon numbers.
 * This example models a hypothetical ARM-class microserver with its own
 * power envelope and wake-up latencies, defines a guarded two-stage
 * sleep plan, and asks the policy manager what to run.
 *
 *   ./custom_platform
 */

#include <iostream>

#include "core/policy_manager.hh"
#include "power/platform_model.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"

using namespace sleepscale;

int
main()
{
    // A microserver: 28 W peak CPU dynamic power, lean platform, and
    // faster deep-sleep entry/exit than the Xeon-class part. The only
    // requirements are positive powers, power decreasing with sleep
    // depth at f = 1, and non-decreasing wake latencies.
    CpuPowerParams cpu;
    cpu.activeCoeff = 28.0;
    cpu.idleCoeff = 14.0;
    cpu.haltCoeff = 9.0;
    cpu.sleepPower = 4.0;
    cpu.deepSleepPower = 1.5;

    PlatformPowerParams board;
    board.s0Active = 38.0;
    board.s0Idle = 21.0;
    board.s3 = 4.5;

    WakeLatencies wake;
    wake.c1S0Idle = 5e-6;
    wake.c3S0Idle = 40e-6;
    wake.c6S0Idle = 400e-6;
    wake.c6S3 = 0.4;

    const PlatformModel arm("ARM-microserver", cpu, board, wake);
    std::cout << "Platform '" << arm.name() << "': active "
              << arm.activePower(1.0) << " W at f=1, deep sleep "
              << arm.lowPower(LowPowerState::C6S3, 1.0) << " W\n\n";

    // A mail-like workload (heavy-tailed service, Cv = 3.6) at 25%
    // load, mildly memory-bound (service rate ~ f^0.5).
    WorkloadSpec workload = mailWorkload();
    workload.scaling = ServiceScaling::mixed();
    StationarySource source(workload, 0.25, 11);
    const auto jobs = materialize(source, 30000);

    // Candidate plans: the five single states plus a guarded descent
    // that parks in C3S0(i) and only commits to C6S3 after two seconds
    // of idleness (the paper's lesson 4 knob).
    PolicySpace space = PolicySpace::allStates(
        PolicySpace::frequencyGrid(0.2, 1.0, 0.02));
    space.plans.push_back(SleepPlan(
        {{LowPowerState::C3S0Idle, 0.0}, {LowPowerState::C6S3, 2.0}}));

    // Heavy-tailed service (Cv = 3.6) needs a generous tail budget: the
    // baseline-derived deadline for rho_b = 0.9 is ~2.8 s.
    const QosConstraint qos =
        QosConstraint::fromBaselineTail(0.9, workload.serviceMean);
    const PolicyManager manager(arm, workload.scaling, space, qos);
    const PolicyDecision decision = manager.selectFromLog(jobs);

    std::cout << "QoS: 95th-percentile response <= " << qos.budget()
              << " s\n";
    std::cout << "Selected policy: " << decision.policy.toString()
              << "\n  predicted power: " << decision.predictedPower
              << " W\n  predicted p95:   " << decision.predictedMetric
              << " s\n  feasible: " << (decision.feasible ? "yes" : "no")
              << " (" << decision.evaluated << " candidates)\n";

    // How much the guarded plan matters on this platform.
    TablePrinter table({"plan", "E[P] at selected f [W]"});
    for (const SleepPlan &plan : space.plans) {
        const PolicyEvaluation eval = evaluatePolicy(
            arm, workload.scaling,
            Policy{decision.policy.frequency, plan}, jobs);
        table.addRow({plan.toString(),
                      std::to_string(eval.avgPower())});
    }
    table.print(std::cout);
    return 0;
}
