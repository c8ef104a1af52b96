/**
 * @file
 * The named power-management strategies compared in the paper's Figure 9.
 *
 * Every strategy is a RuntimeConfig for the one epoch loop (FarmRuntime,
 * which SleepScaleRuntime runs on one server), so comparisons use
 * identical workload feeds, accounting, and predictors:
 *
 *  - SS:       full SleepScale (all five states x frequency grid).
 *  - SS(C3):   SleepScale restricted to the single state C3S0(i).
 *  - DVFS:     frequency management only; idles in C0(i)S0(i) (the state
 *              a frequency governor gets with no C-state management) and
 *              may not enter deeper states.
 *  - R2H(C3):  race-to-halt at f = 1 into C3S0(i).
 *  - R2H(C6):  race-to-halt at f = 1 into C6S0(i).
 */

#ifndef SLEEPSCALE_CORE_STRATEGIES_HH
#define SLEEPSCALE_CORE_STRATEGIES_HH

#include <functional>
#include <string>

#include "core/runtime.hh"
#include "util/registry.hh"

namespace sleepscale {

/** Policy-management knobs a strategy factory specializes. */
struct StrategyKnobs
{
    unsigned epochMinutes = 5;      ///< Policy update interval T.
    double overProvision = 0.0;     ///< Over-provisioning factor α.
    double rhoB = 0.8;              ///< Peak design utilization ρ_b.
    /** Which response-time statistic the QoS bounds. */
    QosMetric qosMetric = QosMetric::MeanResponse;

    /** Candidate-search fan-out width (RuntimeConfig::searchThreads). */
    std::size_t searchThreads = 1;

    /** Kalman process-noise variance Q of the "poet" controller
     * (ControllerConfig::processNoise; docs/CONTROL.md). */
    double controllerProcessNoise = 1e-4;

    /** Kalman measurement-noise variance R of the "poet" controller
     * (ControllerConfig::measurementNoise). */
    double controllerMeasurementNoise = 1e-2;

    /** Z-plane pole of the "poet" xup integrator, in [0, 1)
     * (ControllerConfig::pole). */
    double controllerPole = 0.0;

    /** Control period of the "poet" strategy as a multiple of the
     * epoch (ControllerConfig::periodEpochs). */
    unsigned controllerPeriodEpochs = 1;
};

/** Factory signature stored in the strategy registry. */
using StrategyFactory = std::function<RuntimeConfig(const StrategyKnobs &)>;

/**
 * The strategy registry, the one way to build a strategy's
 * RuntimeConfig. Ships with the paper's Figure 9 lineup — "SS",
 * "SS(C3)", "DVFS", "R2H(C3)", "R2H(C6)" — keyed by the paper's labels,
 * plus "poet", the O(1) Kalman-filtered feedback controller over the
 * same policy space (docs/CONTROL.md); extensions register additional
 * configurations under new names. Every factory copies the epoch, α,
 * ρ_b, QoS metric and search knobs (α does not move race-to-halt,
 * which already runs at f = 1).
 */
Registry<StrategyFactory> &strategyRegistry();

/** Build a registered strategy's RuntimeConfig; fatal() on unknown names. */
RuntimeConfig strategyConfigByName(const std::string &name,
                                   const StrategyKnobs &knobs);

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_STRATEGIES_HH
