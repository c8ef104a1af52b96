/**
 * @file
 * Farm-scale throughput bench (docs/FARM_SCALE.md): how many jobs per
 * wall-clock second the event-driven farm core streams at farm sizes
 * {100, 1k, 10k}. The scenario is the Table 5 DNS workload at a flat
 * 0.25 per-server load under farm-wide control; the trace length
 * shrinks as the farm grows so every row simulates a comparable job
 * count and the bench stays seconds-long end to end. The 10k row runs
 * the large-farm configuration (auto sharding, no per-server tail
 * histograms) — the same shape the farm_scale_test smoke run pins.
 * Each size also runs a fault row: the same scenario with MTBF 600 s /
 * MTTR 60 s crashes (about 9% of servers down in steady state), so
 * arrivals route around down servers (docs/FAULTS.md).
 *
 * The headline column is jobs/s of wall time (generation + routing +
 * service simulation + accounting). Before the event wheel the
 * per-arrival dispatcher scan was O(N), so the 10k row ran ~100x
 * slower per job than the 100-server row; with the O(log N) core the
 * rows should stay within the same order of magnitude, and a fault
 * row should stay within 2x of its fault-free twin.
 *
 * `--json` emits the same rows as a JSON document;
 * tools/bench_snapshot.sh captures that as BENCH_farm_scale.json so
 * the scaling trajectory is version-controlled alongside the perf
 * snapshots.
 */

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/runner.hh"
#include "util/monotonic_clock.hh"
#include "util/table_printer.hh"

using namespace sleepscale;

namespace {

/** One farm size's outcome, ready for either output format. */
struct ScaleRow
{
    std::size_t servers;    ///< Farm size.
    std::string faults;     ///< Fault source ("none" or "mtbf").
    std::size_t shards;     ///< Shard lanes requested (0 = auto).
    std::uint64_t jobs;     ///< Jobs offered over the run.
    double sim_minutes;     ///< Simulated trace span, minutes.
    double wall_ms;         ///< Wall clock for the whole scenario.
    double jobs_per_sec;    ///< jobs / wall seconds.
    double mean_response_s; ///< Whole-run E[R], seconds.
    double farm_kw;         ///< Whole-run farm power, kilowatts.
};

ScaleRow
runScale(std::size_t servers, std::size_t trace_minutes, bool faults)
{
    std::ostringstream label;
    label << "farm-" << servers;
    ScenarioBuilder builder(label.str());
    builder.engine(EngineKind::Farm)
        .workload("dns")
        .flatTrace(0.25, trace_minutes)
        .farmSize(servers)
        .dispatcher("JSQ")
        .farmControl("farm-wide")
        .farmShards(0) // Auto: lanes scale with the farm size.
        .epochMinutes(5)
        .predictor("LC")
        .seed(7);
    // The large-farm configuration: per-server percentile histograms
    // are the one per-server cost that is not O(1), so the 10k row
    // runs without them exactly like a production-scale sweep would.
    if (servers >= 10000)
        builder.tailHistograms(false);
    if (faults)
        builder.faults("mtbf").faultRates(600.0, 60.0);
    const ScenarioSpec spec = builder.build();

    const double start = monotonicMicros();
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    const double wall_us = monotonicMicros() - start;

    ScaleRow row;
    row.servers = servers;
    row.faults = spec.faults;
    row.shards = spec.farmShards;
    row.jobs = result.jobs;
    row.sim_minutes = static_cast<double>(trace_minutes);
    row.wall_ms = wall_us / 1e3;
    row.jobs_per_sec =
        wall_us > 0.0 ? static_cast<double>(result.jobs) / (wall_us / 1e6)
                      : 0.0;
    row.mean_response_s = result.meanResponse;
    row.farm_kw = result.avgPower / 1e3;
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
printJson(std::ostream &out, const std::vector<ScaleRow> &rows)
{
    out << "{\n"
        << "  \"bench\": \"farm_scale\",\n"
        << "  \"workload\": \"dns\",\n"
        << "  \"load\": 0.25,\n"
        << "  \"dispatcher\": \"JSQ\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow &row = rows[i];
        out << "    {\"servers\": " << row.servers
            << ", \"faults\": \"" << row.faults << "\""
            << ", \"shards\": " << row.shards
            << ", \"sim_minutes\": " << fmt(row.sim_minutes, 0)
            << ", \"jobs\": " << row.jobs
            << ", \"wall_ms\": " << fmt(row.wall_ms, 1)
            << ", \"jobs_per_sec\": " << fmt(row.jobs_per_sec, 0)
            << ", \"mean_response_s\": " << fmt(row.mean_response_s, 6)
            << ", \"farm_kw\": " << fmt(row.farm_kw, 3)
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

void
printTable(std::ostream &out, const std::vector<ScaleRow> &rows)
{
    printBanner(out,
                "Farm scale bench: streaming throughput of the "
                "event-driven core (DNS, load 0.25, JSQ)");
    TablePrinter table({"servers", "faults", "jobs", "sim [min]",
                        "wall [ms]", "jobs/s", "E[R] [s]", "farm [kW]"});
    for (const ScaleRow &row : rows)
        table.addRow({std::to_string(row.servers), row.faults,
                      std::to_string(row.jobs), fmt(row.sim_minutes, 0),
                      fmt(row.wall_ms, 1), fmt(row.jobs_per_sec, 0),
                      fmt(row.mean_response_s, 4), fmt(row.farm_kw, 2)});
    table.print(out);
    out << "\nExpected: jobs/s stays within one order of magnitude "
           "from 100 to 10k servers\n(the event wheel makes routing "
           "O(log N)), and each mtbf row within 2x of its\nfault-free "
           "twin; a collapse on a 10k row means a per-arrival or "
           "per-epoch\nO(N) scan crept back into the farm path.\n";
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

    // (farm size, trace minutes); each size runs fault-free, then mtbf.
    const std::pair<std::size_t, std::size_t> sizes[] = {
        {100, 20}, {1000, 10}, {10000, 2}};
    std::vector<ScaleRow> rows;
    for (const auto &[servers, minutes] : sizes) {
        for (const bool faults : {false, true})
            rows.push_back(runScale(servers, minutes, faults));
    }

    if (json)
        printJson(std::cout, rows);
    else
        printTable(std::cout, rows);
    return 0;
}
