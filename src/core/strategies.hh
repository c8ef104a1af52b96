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

#include <array>
#include <functional>
#include <string>

#include "core/runtime.hh"
#include "util/registry.hh"

namespace sleepscale {

/** Identifier of a named strategy. */
enum class StrategyKind
{
    SleepScale,     ///< "SS"
    SleepScaleC3,   ///< "SS(C3)"
    DvfsOnly,       ///< "DVFS"
    RaceToHaltC3,   ///< "R2H(C3)"
    RaceToHaltC6,   ///< "R2H(C6)"
};

/** All strategies in the paper's Figure 9 order. */
inline constexpr std::array<StrategyKind, 5> allStrategies = {
    StrategyKind::SleepScale,   StrategyKind::SleepScaleC3,
    StrategyKind::DvfsOnly,     StrategyKind::RaceToHaltC3,
    StrategyKind::RaceToHaltC6,
};

/** Paper-style label, e.g. "R2H(C6)". */
std::string toString(StrategyKind kind);

/**
 * Build the RuntimeConfig of a named strategy.
 *
 * @param kind Which strategy.
 * @param epoch_minutes Policy update interval T.
 * @param over_provision Over-provisioning factor α (applies to the
 *        policy-managed strategies; race-to-halt is already at f = 1).
 * @param rho_b Peak design utilization anchoring the QoS budget.
 * @param qos_metric Which response-time statistic the QoS bounds.
 */
RuntimeConfig makeStrategyConfig(StrategyKind kind, unsigned epoch_minutes,
                                 double over_provision, double rho_b,
                                 QosMetric qos_metric =
                                     QosMetric::MeanResponse);

/** Policy-management knobs a strategy factory specializes. */
struct StrategyKnobs
{
    unsigned epochMinutes = 5;      ///< Policy update interval T.
    double overProvision = 0.0;     ///< Over-provisioning factor α.
    double rhoB = 0.8;              ///< Peak design utilization ρ_b.
    QosMetric qosMetric = QosMetric::MeanResponse;

    /** Candidate-search fan-out width (EvalEngineOptions::threads). */
    std::size_t searchThreads = 1;

    /** Binary-search the per-plan QoS feasibility boundary instead of
     * scanning the whole frequency grid (EvalEngineOptions::pruned). */
    bool prunedSearch = false;

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
 * The strategy registry. Ships with the paper's Figure 9 lineup — "SS",
 * "SS(C3)", "DVFS", "R2H(C3)", "R2H(C6)" — keyed by their toString()
 * labels, plus "poet", the O(1) Kalman-filtered feedback controller
 * over the same policy space (docs/CONTROL.md); extensions register
 * additional configurations under new names.
 */
Registry<StrategyFactory> &strategyRegistry();

/** Build a registered strategy's RuntimeConfig; fatal() on unknown names. */
RuntimeConfig strategyConfigByName(const std::string &name,
                                   const StrategyKnobs &knobs);

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_STRATEGIES_HH
