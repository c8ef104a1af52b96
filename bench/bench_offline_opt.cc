/**
 * @file
 * Offline-optimal oracle bench (docs/OFFLINE_OPT.md): how far each
 * strategy sits from the offline optimum, and what the FPTAS costs.
 *
 * Three sections:
 *
 *  1. Regret vs offline optimal — SS, poet, and the
 *     R2H(C6) race-to-halt fixed policy (the operating point the
 *     guarded degraded mode falls back to) on the Table 5 workloads'
 *     2AM-6AM email-store slice, replicated N = 3 with 95% CIs on
 *     regret_pct. The mail and google arrival streams are thinned
 *     (the slice packs 10-100x more jobs than dns at the same
 *     utilization) so the whole section stays minutes, not hours.
 *  2. FPTAS runtime vs epsilon — one stationary exponential log,
 *     epsilon swept over a factor of 20: solve wall time, certified
 *     effective epsilon, and peak DP frontier width.
 *  3. FPTAS vs exact — randomized small logs through both solvers:
 *     speedup and the realized approximation gap (always within the
 *     requested epsilon; usually far inside it).
 *
 * `--json` emits the same numbers as a JSON document;
 * tools/bench_snapshot.sh captures it as BENCH_offline_opt.json.
 */

#include <chrono>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/offline_opt.hh"
#include "core/policy_space.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "util/table_printer.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

using namespace sleepscale;

namespace {

constexpr std::size_t kReplications = 3;

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

// ------------------------------------------ 1. regret vs offline opt

struct RegretRow
{
    std::string workload;
    std::string strategy;
    MetricSummary regret_pct;
    MetricSummary oracle_j;
    MetricSummary energy_j;
};

RegretRow
regretOf(const std::string &workload, const std::string &label,
         const std::string &strategy, double rate_scale)
{
    ScenarioSpec spec;
    spec.label = "regret " + workload + " " + label;
    spec.workload = workload;
    spec.trace = {.kind = "es", .days = 1, .seed = 20140614,
                  .windowStartHour = 2, .windowEndHour = 6};
    spec.sourceRateScale = rate_scale;
    spec.strategy = strategy;
    spec.epochMinutes = 5;
    spec.predictor = "LC";
    spec.seed = 20140614;
    spec.replications = kReplications;
    spec.reportRegret = true;
    spec.optEpsilon = 0.05;
    const ReplicatedResult result = ExperimentRunner::runReplicated(spec);
    return {workload, label, result.metric("regret_pct"),
            result.metric("offline_opt_energy"),
            result.metric("energy_j")};
}

std::vector<RegretRow>
regretSection()
{
    struct Arm
    {
        const char *label;
        const char *strategy;
    };
    const Arm arms[] = {
        {"SS", "SS"},
        {"poet", "poet"},
        // The guarded degraded mode pins this race-to-halt fallback
        // (docs/FAULTS.md), so its regret bounds the cost of running
        // degraded; the mode itself needs the farm engine while the
        // oracle replays a single server's log.
        {"degraded(R2H-C6)", "R2H(C6)"},
    };
    const struct
    {
        const char *workload;
        double rate_scale;
    } workloads[] = {{"dns", 1.0}, {"mail", 0.3}, {"google", 0.05}};

    std::vector<RegretRow> rows;
    for (const auto &w : workloads)
        for (const Arm &arm : arms)
            rows.push_back(regretOf(w.workload, arm.label, arm.strategy,
                                    w.rate_scale));
    return rows;
}

// ------------------------------------------ 2. runtime vs epsilon

struct EpsilonRow
{
    double epsilon;
    double solve_s;
    double epsilon_effective;
    std::size_t frontier_peak;
    double energy_j;
};

std::vector<EpsilonRow>
epsilonSection()
{
    // One hour of stationary Poisson/exponential dns-like load at
    // rho = 0.3 — the regime the 2AM-8AM slices live in.
    const WorkloadSpec dns = workloadByName("dns");
    StationarySource source(
        std::make_unique<ExponentialDist>(dns.serviceMean / 0.3),
        std::make_unique<ExponentialDist>(dns.serviceMean), 20140614);
    std::vector<Job> jobs;
    double last = 0.0;
    for (const Job &job : materialize(source, 20000)) {
        if (job.arrival > 3600.0)
            break;
        jobs.push_back(job);
        last = job.arrival;
    }
    const auto instance =
        OfflineOptInstance::fromJobs(jobs, std::max(3600.0, last));

    std::vector<EpsilonRow> rows;
    for (double epsilon : {0.2, 0.1, 0.05, 0.02, 0.01}) {
        OfflineOptOptions options;
        options.epsilon = epsilon;
        const OfflineOptimal oracle(PlatformModel::xeon(), dns.scaling,
                                    options);
        const auto start = std::chrono::steady_clock::now();
        const OfflineOptResult result = oracle.solve(instance);
        rows.push_back({epsilon,
                        seconds(std::chrono::steady_clock::now() - start),
                        result.epsilonEffective, result.frontierPeak,
                        result.energy});
    }
    return rows;
}

// ------------------------------------------------ 3. FPTAS vs exact

struct ExactRow
{
    std::size_t instances = 0;
    double exact_s = 0.0;      ///< Total exact-solver wall time.
    double fptas_s = 0.0;      ///< Total FPTAS wall time.
    double worst_gap = 0.0;    ///< max exact/lower - 1 (<= epsilon).
    double epsilon = 0.0;
};

ExactRow
exactSection()
{
    ExactRow row;
    row.instances = 50;
    row.epsilon = 0.05;
    OfflineOptOptions options;
    options.epsilon = row.epsilon;
    options.frequencies = PolicySpace::frequencyGrid(0.4, 1.0, 0.2);
    const OfflineOptimal oracle(PlatformModel::xeon(),
                                ServiceScaling::cpuBound(), options);

    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> gap(0.0, 2.0);
    std::uniform_real_distribution<double> size(0.0, 0.4);
    for (std::size_t i = 0; i < row.instances; ++i) {
        std::vector<Job> jobs;
        double t = 0.0;
        for (int j = 0; j < 9; ++j) {
            t += gap(rng);
            jobs.push_back({t, size(rng), 0});
        }
        const auto instance =
            OfflineOptInstance::fromJobs(jobs, t + 1.0);

        auto start = std::chrono::steady_clock::now();
        const OfflineOptResult exact = oracle.solveExact(instance);
        row.exact_s += seconds(std::chrono::steady_clock::now() - start);

        start = std::chrono::steady_clock::now();
        const OfflineOptResult fptas = oracle.solve(instance);
        row.fptas_s += seconds(std::chrono::steady_clock::now() - start);

        if (fptas.energy > 0.0)
            row.worst_gap = std::max(row.worst_gap,
                                     exact.energy / fptas.energy - 1.0);
    }
    return row;
}

// ------------------------------------------------------------ output

void
printJson(std::ostream &out, const std::vector<RegretRow> &regret,
          const std::vector<EpsilonRow> &epsilons, const ExactRow &exact)
{
    out << "{\n  \"bench\": \"offline_opt\",\n"
        << "  \"replications\": " << kReplications << ",\n"
        << "  \"regret_vs_offline_opt\": [\n";
    for (std::size_t i = 0; i < regret.size(); ++i) {
        const RegretRow &row = regret[i];
        out << "    {\"workload\": \"" << row.workload
            << "\", \"strategy\": \"" << row.strategy
            << "\", \"regret_pct\": " << fmt(row.regret_pct.mean(), 3)
            << ", \"regret_ci\": " << fmt(row.regret_pct.ciHalfWidth(), 3)
            << ", \"oracle_j\": " << fmt(row.oracle_j.mean(), 1)
            << ", \"energy_j\": " << fmt(row.energy_j.mean(), 1) << "}"
            << (i + 1 < regret.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fptas_runtime_vs_epsilon\": [\n";
    for (std::size_t i = 0; i < epsilons.size(); ++i) {
        const EpsilonRow &row = epsilons[i];
        out << "    {\"epsilon\": " << fmt(row.epsilon, 3)
            << ", \"solve_s\": " << fmt(row.solve_s, 4)
            << ", \"epsilon_effective\": "
            << fmt(row.epsilon_effective, 5)
            << ", \"frontier_peak\": " << row.frontier_peak
            << ", \"energy_j\": " << fmt(row.energy_j, 1) << "}"
            << (i + 1 < epsilons.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fptas_vs_exact\": {\"instances\": "
        << exact.instances << ", \"epsilon\": " << fmt(exact.epsilon, 3)
        << ", \"exact_total_s\": " << fmt(exact.exact_s, 4)
        << ", \"fptas_total_s\": " << fmt(exact.fptas_s, 4)
        << ", \"speedup\": "
        << fmt(exact.fptas_s > 0.0 ? exact.exact_s / exact.fptas_s : 0.0,
               2)
        << ", \"worst_gap\": " << fmt(exact.worst_gap, 5)
        << ", \"within_epsilon\": "
        << (exact.worst_gap <= exact.epsilon ? "true" : "false")
        << "}\n}\n";
}

void
printTable(std::ostream &out, const std::vector<RegretRow> &regret,
           const std::vector<EpsilonRow> &epsilons, const ExactRow &exact)
{
    printBanner(out, "Offline-optimal oracle bench: regret and FPTAS "
                     "cost (docs/OFFLINE_OPT.md)");

    out << "\nRegret vs offline optimal (2AM-6AM slice, N = "
        << kReplications << ", mean ± 95% CI):\n";
    TablePrinter regret_table({"workload", "strategy", "regret [%]",
                               "±CI", "oracle [J]", "actual [J]"});
    for (const RegretRow &row : regret)
        regret_table.addRow({row.workload, row.strategy,
                             fmt(row.regret_pct.mean(), 2),
                             fmt(row.regret_pct.ciHalfWidth(), 2),
                             fmt(row.oracle_j.mean(), 0),
                             fmt(row.energy_j.mean(), 0)});
    regret_table.print(out);

    out << "\nFPTAS runtime vs epsilon (1 h stationary dns log):\n";
    TablePrinter eps_table({"epsilon", "solve [s]", "eps_eff",
                            "frontier peak", "lower bound [J]"});
    for (const EpsilonRow &row : epsilons)
        eps_table.addRow({fmt(row.epsilon, 3), fmt(row.solve_s, 3),
                          fmt(row.epsilon_effective, 5),
                          std::to_string(row.frontier_peak),
                          fmt(row.energy_j, 1)});
    eps_table.print(out);

    out << "\nFPTAS vs exact (" << exact.instances
        << " random small logs, epsilon " << fmt(exact.epsilon, 2)
        << "): exact " << fmt(exact.exact_s, 3) << " s total, FPTAS "
        << fmt(exact.fptas_s, 3) << " s total ("
        << fmt(exact.exact_s / std::max(exact.fptas_s, 1e-12), 1)
        << "x), worst realized gap " << fmt(100.0 * exact.worst_gap, 3)
        << "% — " << (exact.worst_gap <= exact.epsilon ? "within" : "OVER")
        << " the requested epsilon\n"
        << "\nExpected: SS sits closest to the oracle, poet pays a "
           "small premium, and\nthe degraded fallback pays the "
           "largest; tightening epsilon grows\nfrontier width and "
           "runtime while the certified bracket narrows\n"
           "(docs/OFFLINE_OPT.md).\n";
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

    const std::vector<RegretRow> regret = regretSection();
    const std::vector<EpsilonRow> epsilons = epsilonSection();
    const ExactRow exact = exactSection();

    if (json)
        printJson(std::cout, regret, epsilons, exact);
    else
        printTable(std::cout, regret, epsilons, exact);
    return 0;
}
