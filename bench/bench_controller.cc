/**
 * @file
 * Controller bench (docs/CONTROL.md): what the O(1) feedback path
 * costs and buys against the search path it replaces.
 *
 * Four sections, each over the paper's DNS day unless noted:
 *
 *  1. Decision cost — per-epoch decision wall time (mean and p99 µs)
 *     of "poet" vs the "SS" search, replicated
 *     N = 5 with 95% CIs. The headline claim: the controller decides
 *     in well under 50 µs where the search spends milliseconds.
 *  2. Burst convergence — the controller under an MMPP-modulated
 *     bursty arrival stream: how many epochs each QoS excursion
 *     lasts before the loop re-enters the budget (reactive recovery,
 *     the trade-off the feedback path makes for its constant cost).
 *  3. Paired energy/QoS deltas — poet vs the search on
 *     the Table 5 workloads (dns, mail, google) under common random
 *     numbers, N = 5, 95% CIs on the energy savings and the
 *     mean-response delta.
 *  4. Farm scale — a 10 000-server per-server farm where every
 *     back-end runs its own controller: the whole decision fan-out's
 *     wall time per epoch (the <1 s bound that makes per-server
 *     control at that scale feasible at all; the search path costs
 *     minutes per epoch there).
 *
 * `--json` emits the same numbers as a JSON document;
 * tools/bench_snapshot.sh captures it as BENCH_controller.json.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/qos.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "workload/workload_spec.hh"

using namespace sleepscale;

namespace {

constexpr std::size_t kReplications = 5;

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

/** The shared single-server DNS-day scenario all sections start from. */
ScenarioSpec
dayScenario(const std::string &label, const std::string &strategy,
            const std::string &workload)
{
    ScenarioSpec spec;
    spec.label = label;
    spec.workload = workload;
    spec.trace = {.kind = "es", .windowStartHour = 2, .windowEndHour = 20};
    spec.strategy = strategy;
    spec.predictor = "LC";
    spec.seed = 5;
    return spec;
}

// --------------------------------------------------- 1. decision cost

struct CostRow
{
    std::string strategy;
    MetricSummary mean_us; ///< decision_us_mean across replications.
    MetricSummary p99_us;  ///< decision_us_p99 across replications.
};

CostRow
decisionCost(const std::string &strategy)
{
    ScenarioSpec spec = dayScenario("cost " + strategy, strategy, "dns");
    spec.recordDecisionTime = true;
    spec.replications = kReplications;
    const ReplicatedResult result = ExperimentRunner::runReplicated(spec);
    return {strategy, result.metric("decision_us_mean"),
            result.metric("decision_us_p99")};
}

// ----------------------------------------------- 2. burst convergence

struct BurstOutcome
{
    double budget_s = 0.0;      ///< The QoS budget the spells exceed.
    std::size_t epochs = 0;     ///< Completed epochs examined.
    std::size_t spells = 0;     ///< Maximal runs of violating epochs.
    std::size_t max_spell = 0;  ///< Longest spell, epochs.
    double mean_spell = 0.0;    ///< Mean spell length, epochs.
    double violating_fraction = 0.0; ///< Violating / examined epochs.
};

BurstOutcome
burstConvergence()
{
    ScenarioSpec spec = dayScenario("burst", "poet", "dns");
    spec.source = "bursty";
    spec.sourceUtilization = 0.2;
    spec.burstRateFactor = 4.0;
    spec.burstMeanLength = 120.0;
    spec.burstMeanGap = 1800.0;
    spec.captureEpochs = true;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);

    BurstOutcome outcome;
    outcome.budget_s =
        QosConstraint::fromBaselineMean(spec.rhoB,
                                        workloadByName("dns").serviceMean)
            .budget();

    const auto response = result.epochs.column("mean_response_s");
    const auto completions = result.epochs.column("completions");
    std::size_t spell = 0;
    std::size_t violating = 0;
    bool settled = false; // skip the cold-start ramp
    for (std::size_t i = 0; i < response.size(); ++i) {
        if (completions[i] <= 0.0)
            continue;
        const bool over = response[i] > outcome.budget_s;
        if (!settled) {
            settled = !over;
            continue;
        }
        ++outcome.epochs;
        if (over) {
            ++violating;
            ++spell;
            outcome.max_spell = std::max(outcome.max_spell, spell);
        } else if (spell > 0) {
            ++outcome.spells;
            spell = 0;
        }
    }
    if (spell > 0)
        ++outcome.spells;
    outcome.mean_spell =
        outcome.spells > 0
            ? static_cast<double>(violating) /
                  static_cast<double>(outcome.spells)
            : 0.0;
    outcome.violating_fraction =
        outcome.epochs > 0 ? static_cast<double>(violating) /
                                 static_cast<double>(outcome.epochs)
                           : 0.0;
    return outcome;
}

// ------------------------------------------- 3. paired energy deltas

struct PairedRow
{
    std::string workload;
    std::string baseline; ///< The search strategy poet is paired with.
    MetricSummary energy_savings_pct;
    MetricSummary response_delta_s; ///< poet − search mean response.
    double poet_violations;   ///< QoS-violating replication fraction.
    double search_violations;
};

PairedRow
pairedDelta(const std::string &workload)
{
    ScenarioSpec poet = dayScenario("poet " + workload, "poet", workload);
    poet.replications = kReplications;
    ScenarioSpec search = dayScenario("SS " + workload, "SS", workload);
    search.replications = kReplications;
    const PairedComparison comparison = comparePaired(poet, search);
    return {workload,
            "SS",
            comparison.delta("energy_savings_pct"),
            comparison.delta("mean_response_s"),
            comparison.a.metric("qos_violation").mean(),
            comparison.b.metric("qos_violation").mean()};
}

// ------------------------------------------------------ 4. farm scale

struct FarmScaleRow
{
    std::size_t servers = 0;
    double decision_us_mean = 0.0; ///< Whole fan-out per epoch, µs.
    double decision_us_p99 = 0.0;
    double farm_power_w = 0.0;
};

FarmScaleRow
farmScale(std::size_t servers)
{
    // A short, lightly loaded window: the section measures decision
    // fan-out cost, which is independent of the job stream's length.
    ScenarioSpec spec;
    spec.label = "farm scale";
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "flat", .flatLevel = 0.02, .flatMinutes = 15};
    spec.source = "stationary";
    spec.sourceUtilization = 0.02;
    spec.strategy = "poet";
    spec.recordDecisionTime = true;
    spec.farmSize = servers;
    spec.farmControl = "per-server";
    spec.seed = 4;
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    return {servers, result.extra("decision_us_mean"),
            result.extra("decision_us_p99"), result.avgPower};
}

// ------------------------------------------------------------ output

void
printJson(std::ostream &out, const std::vector<CostRow> &costs,
          const BurstOutcome &burst,
          const std::vector<PairedRow> &paired,
          const FarmScaleRow &farm)
{
    out << "{\n  \"bench\": \"controller\",\n"
        << "  \"replications\": " << kReplications << ",\n"
        << "  \"decision_cost\": [\n";
    for (std::size_t i = 0; i < costs.size(); ++i) {
        const CostRow &row = costs[i];
        out << "    {\"strategy\": \"" << row.strategy
            << "\", \"mean_us\": " << fmt(row.mean_us.mean(), 3)
            << ", \"mean_us_ci\": " << fmt(row.mean_us.ciHalfWidth(), 3)
            << ", \"p99_us\": " << fmt(row.p99_us.mean(), 3)
            << "}" << (i + 1 < costs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"burst_convergence\": {\"budget_s\": "
        << fmt(burst.budget_s, 4)
        << ", \"epochs\": " << burst.epochs
        << ", \"qos_excursions\": " << burst.spells
        << ", \"max_recovery_epochs\": " << burst.max_spell
        << ", \"mean_recovery_epochs\": " << fmt(burst.mean_spell, 2)
        << ", \"violating_fraction\": "
        << fmt(burst.violating_fraction, 4) << "},\n"
        << "  \"paired_vs_search\": [\n";
    for (std::size_t i = 0; i < paired.size(); ++i) {
        const PairedRow &row = paired[i];
        out << "    {\"workload\": \"" << row.workload
            << "\", \"baseline\": \"" << row.baseline
            << "\", \"energy_savings_pct\": "
            << fmt(row.energy_savings_pct.mean(), 3)
            << ", \"energy_savings_ci\": "
            << fmt(row.energy_savings_pct.ciHalfWidth(), 3)
            << ", \"significant\": "
            << (row.energy_savings_pct.excludesZero() ? "true" : "false")
            << ", \"response_delta_s\": "
            << fmt(row.response_delta_s.mean(), 4)
            << ", \"response_delta_ci\": "
            << fmt(row.response_delta_s.ciHalfWidth(), 4)
            << ", \"poet_qos_violation\": "
            << fmt(row.poet_violations, 2)
            << ", \"search_qos_violation\": "
            << fmt(row.search_violations, 2) << "}"
            << (i + 1 < paired.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"farm_scale\": {\"servers\": " << farm.servers
        << ", \"decision_us_mean\": " << fmt(farm.decision_us_mean, 1)
        << ", \"decision_us_p99\": " << fmt(farm.decision_us_p99, 1)
        << ", \"within_1s\": "
        << (farm.decision_us_p99 < 1e6 ? "true" : "false") << "}\n"
        << "}\n";
}

void
printTable(std::ostream &out, const std::vector<CostRow> &costs,
           const BurstOutcome &burst,
           const std::vector<PairedRow> &paired,
           const FarmScaleRow &farm)
{
    printBanner(out, "Controller bench: O(1) feedback control vs search "
                     "(docs/CONTROL.md)");

    out << "\nPer-epoch decision cost (DNS day, N = " << kReplications
        << ", mean ± 95% CI):\n";
    TablePrinter cost_table({"strategy", "mean [µs]", "±CI", "p99 [µs]"});
    for (const CostRow &row : costs)
        cost_table.addRow({row.strategy, fmt(row.mean_us.mean(), 2),
                           fmt(row.mean_us.ciHalfWidth(), 2),
                           fmt(row.p99_us.mean(), 2)});
    cost_table.print(out);

    out << "\nBurst convergence (MMPP bursty arrivals, budget "
        << fmt(burst.budget_s, 3) << " s): " << burst.spells
        << " QoS excursions over " << burst.epochs
        << " epochs; recovery " << fmt(burst.mean_spell, 1)
        << " epochs mean, " << burst.max_spell << " max; "
        << fmt(100.0 * burst.violating_fraction, 1)
        << "% of epochs violating\n";

    out << "\nPaired poet-vs-search deltas (common random numbers, "
           "N = " << kReplications << "):\n";
    TablePrinter paired_table({"workload", "baseline", "energy saved",
                               "±CI", "signif?", "ΔE[R] [s]", "±CI"});
    for (const PairedRow &row : paired)
        paired_table.addRow(
            {row.workload, row.baseline,
             fmt(row.energy_savings_pct.mean(), 2) + "%",
             fmt(row.energy_savings_pct.ciHalfWidth(), 2),
             row.energy_savings_pct.excludesZero() ? "yes" : "no",
             fmt(row.response_delta_s.mean(), 3),
             fmt(row.response_delta_s.ciHalfWidth(), 3)});
    paired_table.print(out);

    out << "\nFarm scale: " << farm.servers
        << " per-server controllers decide in "
        << fmt(farm.decision_us_mean / 1e3, 1) << " ms per epoch (p99 "
        << fmt(farm.decision_us_p99 / 1e3, 1) << " ms) — "
        << (farm.decision_us_p99 < 1e6 ? "within" : "OVER")
        << " the 1 s bound\n"
        << "\nExpected: poet decides 100-1000x faster than the search "
           "at a small energy\npremium or saving (the CIs above say "
           "which); QoS excursions under bursts\nrecover within a few "
           "epochs — the reactive-control trade-off.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
    }

    const std::vector<CostRow> costs = {decisionCost("poet"),
                                        decisionCost("SS")};

    const BurstOutcome burst = burstConvergence();

    std::vector<PairedRow> paired;
    for (const std::string workload : {"dns", "mail", "google"})
        paired.push_back(pairedDelta(workload));

    const FarmScaleRow farm = farmScale(10000);

    if (json)
        printJson(std::cout, costs, burst, paired, farm);
    else
        printTable(std::cout, costs, burst, paired, farm);
    return 0;
}
