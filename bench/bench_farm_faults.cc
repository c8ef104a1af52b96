/**
 * @file
 * Robustness bench (docs/FAULTS.md): what server churn costs a
 * SleepScale farm. The same 4-server DNS scenario runs at churn
 * levels {0%, 0.1%, 1%} — churn c is the long-run fraction of
 * server-time spent down, realized as independent Exp(MTBF)/Exp(MTTR)
 * crash/repair processes with MTTR fixed at 120 s and
 * MTBF = MTTR * (1 - c) / c (c = 0 is the fault-free `faults = "none"`
 * configuration, which the test suite pins bit-for-bit against the
 * pre-fault runtime).
 *
 * Reported per level: availability, goodput (completed/offered),
 * drops, retries, degraded server-seconds, and the energy overhead —
 * the change in energy *per completed job* relative to the fault-free
 * baseline, which is the honest metric when churn removes both energy
 * and completions at once.
 *
 * `--json` emits the same rows as a JSON document;
 * tools/bench_snapshot.sh captures that as BENCH_farm_faults.json so
 * the robustness trajectory is version-controlled alongside the perf
 * snapshots.
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.hh"

using namespace sleepscale;

namespace {

/** One churn level's outcome, ready for either output format. */
struct ChurnRow
{
    double churn;         ///< Target down fraction (0 = no faults).
    double mtbf;          ///< Realized MTBF, s (0 when churn = 0).
    double availability;  ///< Fraction of server-seconds up.
    double goodput;       ///< completed / offered.
    double dropped;       ///< Jobs dropped past the failover deadline.
    double retries;       ///< Failover re-dispatch attempts.
    double degraded_s;    ///< Server-seconds under the safe policy.
    double energy_j;      ///< Farm energy, joules.
    double joules_per_job; ///< energy / completed jobs.
};

constexpr double kMttr = 120.0;

ScenarioSpec
churnSpec(double churn)
{
    std::ostringstream label;
    label << "churn=" << churn;
    ScenarioSpec spec;
    spec.label = label.str();
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "flat", .flatLevel = 0.3, .flatMinutes = 240};
    spec.predictor = "LC";
    spec.loop.farmSize = 4;
    spec.loop.control = "per-server";
    spec.seed = 2;
    if (churn > 0.0) {
        spec.loop.faults = "mtbf";
        spec.loop.mtbf = kMttr * (1.0 - churn) / churn;
        spec.loop.mttr = kMttr;
        spec.loop.retryBackoff = 0.5;
        spec.loop.dropTimeout = 240.0;
    }
    return spec;
}

ChurnRow
runChurn(double churn)
{
    const ScenarioSpec spec = churnSpec(churn);
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    ChurnRow row;
    row.churn = churn;
    row.mtbf = churn > 0.0 ? kMttr * (1.0 - churn) / churn : 0.0;
    row.availability = result.extra("availability");
    row.goodput = result.extra("goodput");
    row.dropped = result.extra("dropped_jobs");
    row.retries = result.extra("retries");
    row.degraded_s = result.extra("degraded_s");
    row.energy_j = result.energy;
    row.joules_per_job =
        result.jobs > 0 ? result.energy / static_cast<double>(result.jobs)
                        : 0.0;
    return row;
}

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

void
printJson(std::ostream &out, const std::vector<ChurnRow> &rows)
{
    const double base = rows.front().joules_per_job;
    out << "{\n"
        << "  \"bench\": \"farm_faults\",\n"
        << "  \"workload\": \"dns\",\n"
        << "  \"farm_size\": 4,\n"
        << "  \"mttr_s\": " << fmt(kMttr, 1) << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ChurnRow &row = rows[i];
        const double overhead =
            base > 0.0 ? row.joules_per_job / base - 1.0 : 0.0;
        out << "    {\"churn\": " << fmt(row.churn, 4)
            << ", \"mtbf_s\": " << fmt(row.mtbf, 1)
            << ", \"availability\": " << fmt(row.availability, 6)
            << ", \"goodput\": " << fmt(row.goodput, 6)
            << ", \"dropped_jobs\": " << fmt(row.dropped, 0)
            << ", \"retries\": " << fmt(row.retries, 0)
            << ", \"degraded_s\": " << fmt(row.degraded_s, 1)
            << ", \"energy_j\": " << fmt(row.energy_j, 3)
            << ", \"joules_per_job\": " << fmt(row.joules_per_job, 6)
            << ", \"energy_overhead_pct\": " << fmt(100.0 * overhead, 3)
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

void
printTable(std::ostream &out, const std::vector<ChurnRow> &rows)
{
    printBanner(out,
                "Farm fault bench: churn cost (4 servers, DNS, "
                "per-server control, MTTR 120 s)");
    const double base = rows.front().joules_per_job;
    TablePrinter table({"churn", "avail", "goodput", "drops", "retries",
                        "degraded [s]", "J/job", "energy overhead"});
    for (const ChurnRow &row : rows) {
        const double overhead =
            base > 0.0 ? row.joules_per_job / base - 1.0 : 0.0;
        table.addRow({fmt(100.0 * row.churn, 1) + "%",
                      fmt(row.availability, 4), fmt(row.goodput, 4),
                      fmt(row.dropped, 0), fmt(row.retries, 0),
                      fmt(row.degraded_s, 0),
                      fmt(row.joules_per_job, 3),
                      fmt(100.0 * overhead, 2) + "%"});
    }
    table.print(out);
    out << "\nExpected: availability tracks 1 - churn; the surviving "
           "servers absorb the\ndisplaced load, so energy per "
           "completed job rises with churn while total\nenergy can "
           "fall (fewer completions). The fault-free row matches "
           "BENCH_policy\nbaselines bit-for-bit by construction.\n";
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

    std::vector<ChurnRow> rows;
    for (double churn : {0.0, 0.001, 0.01})
        rows.push_back(runChurn(churn));

    if (json)
        printJson(std::cout, rows);
    else
        printTable(std::cout, rows);
    return 0;
}
