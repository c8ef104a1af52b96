/**
 * @file
 * The named power-management strategies compared in the paper's Figure 9.
 *
 * Every strategy is a patch over a RuntimeConfig for the one epoch loop
 * (FarmRuntime, which SleepScaleRuntime runs on one server): it narrows
 * the policy space or pins the decision and leaves every other knob as
 * the caller set it, so comparisons use identical workload feeds,
 * accounting, and predictors:
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

/** A strategy: a patch applied to the caller's RuntimeConfig. */
using StrategyPatch = std::function<void(RuntimeConfig &)>;

/**
 * The strategy registry, the one way to turn a RuntimeConfig into a
 * strategy's. Ships with the paper's Figure 9 lineup — "SS", "SS(C3)",
 * "DVFS", "R2H(C3)", "R2H(C6)" — keyed by the paper's labels, plus
 * "poet", the O(1) Kalman-filtered feedback controller over the same
 * policy space (docs/CONTROL.md); extensions register additional
 * patches under new names.
 *
 * Each patch sets the decision rule its name says. The search
 * strategies clear `controller` and `fixedPolicy` (SS(C3) and DVFS
 * then narrow `space` to one sleep plan), race-to-halt clears
 * `controller` and sets `fixedPolicy`, and "poet" clears `fixedPolicy`
 * and emplaces a default `controller` when the caller set none. The
 * controller knobs therefore only ever reach a "poet" run.
 */
Registry<StrategyPatch> &strategyRegistry();

/** Apply a registered strategy to `base`; fatal() on unknown names. */
RuntimeConfig strategyConfigByName(const std::string &name,
                                   RuntimeConfig base);

/** The benchmark driver's old name for a strategy's base knobs; the
 * next change to the benchmark deletes it. */
using StrategyKnobs = RuntimeConfig;

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_STRATEGIES_HH
