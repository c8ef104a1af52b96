#include "experiment/replication.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hh"
#include "util/rng.hh"
#include "util/student_t.hh"
#include "util/thread_pool.hh"

namespace sleepscale {

namespace {

/**
 * The metrics of one replication: the core result fields plus every
 * engine extra, in a stable order. Every replication of one spec
 * reports the same list: runQueued() emits every extra
 * unconditionally, and the optional decision-time and regret extras
 * depend only on the spec.
 */
std::vector<std::pair<std::string, double>>
metricValues(const ScenarioResult &result)
{
    std::vector<std::pair<std::string, double>> values = {
        {"mean_response_s", result.meanResponse},
        {"normalized_mean", result.normalizedMean},
        {"p95_response_s", result.p95Response},
        {"p99_response_s", result.p99Response},
        {"avg_power_w", result.avgPower},
        {"energy_j", result.energy},
        {"elapsed_s", result.elapsed},
        {"jobs", static_cast<double>(result.jobs)},
        {"qos_violation", result.withinBudget ? 0.0 : 1.0},
    };
    values.insert(values.end(), result.extras.begin(),
                  result.extras.end());
    return values;
}

/** The summary named `name`, or null. */
const MetricSummary *
findNamed(const std::vector<MetricSummary> &summaries,
          const std::string &name)
{
    for (const MetricSummary &summary : summaries) {
        if (summary.name == name)
            return &summary;
    }
    return nullptr;
}

std::string
formatCell(double value, int precision)
{
    std::ostringstream out;
    out.precision(precision);
    out << value;
    return out.str();
}

/**
 * Summarize already-run replications of one scenario (at least one),
 * the reduction runReplicated() applies after the fan-out. The
 * replications' metrics zip by index.
 */
ReplicatedResult
summarizeReplications(const ScenarioSpec &spec,
                      std::vector<ScenarioResult> replications)
{
    ReplicatedResult result;
    result.spec = spec;
    for (const auto &entry : metricValues(replications.front()))
        result.metrics.push_back({entry.first, {}});
    for (const ScenarioResult &replication : replications) {
        const auto values = metricValues(replication);
        if (values.size() != result.metrics.size())
            panic("summarizeReplications: replications of '" +
                  spec.label + "' report different metric counts");
        for (std::size_t m = 0; m < values.size(); ++m) {
            MetricSummary &summary = result.metrics[m];
            if (values[m].first != summary.name)
                panic("summarizeReplications: replications of '" +
                      spec.label + "' disagree on metric " +
                      std::to_string(m) + " ('" + summary.name +
                      "' vs '" + values[m].first + "')");
            summary.samples.push_back(values[m].second);
        }
    }
    result.replications = std::move(replications);
    return result;
}

} // namespace

// ---------------------------------------------------------- MetricSummary

double
MetricSummary::mean() const
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    return sum / static_cast<double>(samples.size());
}

double
MetricSummary::stddev() const
{
    const std::size_t n = samples.size();
    if (n < 2)
        return 0.0;
    const double m = mean();
    double m2 = 0.0;
    for (double x : samples)
        m2 += (x - m) * (x - m);
    return std::sqrt(m2 / static_cast<double>(n - 1));
}

double
MetricSummary::ciHalfWidth() const
{
    const std::size_t n = samples.size();
    if (n < 2)
        return 0.0;
    const double critical = studentTCriticalValue(ciLevel, n - 1);
    return critical * stddev() / std::sqrt(static_cast<double>(n));
}

bool
MetricSummary::covers(double value) const
{
    const double half = ciHalfWidth();
    const double m = mean();
    return value >= m - half && value <= m + half;
}

std::string
MetricSummary::toString(int precision) const
{
    std::ostringstream out;
    out.precision(precision);
    out << mean() << " ± " << ciHalfWidth();
    return out.str();
}

// ------------------------------------------------------- ReplicatedResult

const MetricSummary &
ReplicatedResult::metric(const std::string &name) const
{
    if (const MetricSummary *summary = findNamed(metrics, name))
        return *summary;
    std::string known;
    for (const MetricSummary &summary : metrics)
        known += (known.empty() ? "" : ", ") + summary.name;
    fatal("ReplicatedResult '" + spec.label + "': no metric '" + name +
          "' (summarized: " + known + ")");
}

bool
ReplicatedResult::hasMetric(const std::string &name) const
{
    return findNamed(metrics, name) != nullptr;
}

// ------------------------------------------------------- PairedComparison

const MetricSummary &
PairedComparison::delta(const std::string &name) const
{
    if (const MetricSummary *summary = findNamed(deltas, name))
        return *summary;
    fatal("PairedComparison '" + a.spec.label + "' vs '" + b.spec.label +
          "': no delta metric '" + name + "'");
}

// ----------------------------------------------------- replication runs

std::uint64_t
replicationSeed(std::uint64_t base, std::size_t index)
{
    // One splitmix64 step along the golden-ratio sequence: the same
    // derivation the generator's own seeding uses, so replication
    // streams are decorrelated from each other and from the base run.
    constexpr std::uint64_t goldenGamma = 0x9E3779B97F4A7C15ULL;
    return mixSeed(base +
                   goldenGamma * (static_cast<std::uint64_t>(index) + 1));
}

PairedComparison
comparePaired(const ScenarioSpec &a, const ScenarioSpec &b,
              std::size_t threads)
{
    // Common random numbers: both scenarios replicate under the seed
    // stream derived from a.seed, so replication i of each sees the
    // identical arrival stream and the paired delta cancels the
    // stream-to-stream Monte-Carlo noise.
    ScenarioSpec b_crn = b;
    b_crn.seed = a.seed;
    b_crn.replications = a.replications;

    ExperimentRunner runner(threads);
    runner.add(a).add(b_crn);
    std::vector<ReplicatedResult> arms = runner.runReplicated();

    PairedComparison comparison;
    comparison.a = std::move(arms[0]);
    comparison.b = std::move(arms[1]);
    const std::size_t n = a.replications;
    for (const MetricSummary &metric_a : comparison.a.metrics) {
        if (!comparison.b.hasMetric(metric_a.name))
            continue;
        const MetricSummary &metric_b =
            comparison.b.metric(metric_a.name);
        std::vector<double> deltas(n);
        for (std::size_t i = 0; i < n; ++i)
            deltas[i] = metric_a.samples[i] - metric_b.samples[i];
        comparison.deltas.push_back({metric_a.name, std::move(deltas)});
    }

    // Relative savings of A over B, in percent (positive = A cheaper),
    // over two core metrics every replication reports.
    for (const auto &[name, savings_name] :
         {std::pair{"energy_j", "energy_savings_pct"},
          std::pair{"avg_power_w", "power_savings_pct"}}) {
        const MetricSummary &metric_a = comparison.a.metric(name);
        const MetricSummary &metric_b = comparison.b.metric(name);
        std::vector<double> savings(n);
        bool defined = true;
        for (std::size_t i = 0; i < n && defined; ++i) {
            defined = metric_b.samples[i] != 0.0;
            if (defined)
                savings[i] = 100.0 * (1.0 - metric_a.samples[i] /
                                                metric_b.samples[i]);
        }
        if (defined)
            comparison.deltas.push_back({savings_name, std::move(savings)});
    }
    return comparison;
}

ReplicatedResult
ExperimentRunner::runReplicated(const ScenarioSpec &spec,
                                std::size_t threads)
{
    ExperimentRunner runner(threads);
    runner.add(spec);
    return std::move(runner.runReplicated().front());
}

std::vector<ReplicatedResult>
ExperimentRunner::runReplicated() const
{
    const std::vector<ScenarioSpec> &specs = scenarios();
    std::vector<ReplicatedResult> results;
    if (specs.empty())
        return results;

    // Flatten (scenario, replication) into one index space so one pool
    // keeps every lane busy across the whole grid; the reduction walks
    // scenarios in queue order and replications in index order, so the
    // outcome is independent of the pool width.
    std::vector<std::size_t> offsets(specs.size() + 1, 0);
    for (std::size_t i = 0; i < specs.size(); ++i)
        offsets[i + 1] = offsets[i] + specs[i].replications;
    const std::size_t total = offsets.back();

    std::vector<ScenarioResult> flat(total);
    ThreadPool pool(std::min(_threads, total));
    pool.parallelFor(total, [&](std::size_t item, std::size_t) {
        const std::size_t scenario_index = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), item) -
            offsets.begin() - 1);
        const ScenarioSpec &base = specs[scenario_index];
        ScenarioSpec replication = base;
        replication.seed =
            replicationSeed(base.seed, item - offsets[scenario_index]);
        replication.replications = 1;
        flat[item] = runQueued(replication);
    });

    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<ScenarioResult> replications(
            flat.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
            flat.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
        results.push_back(
            summarizeReplications(specs[i], std::move(replications)));
    }
    return results;
}

// ------------------------------------------------------- tables and CSV

TablePrinter
replicationTable(const std::vector<ReplicatedResult> &results)
{
    TablePrinter table({"scenario", "engine", "n", "mu*E[R] ± CI",
                        "p95 (svc) ± CI", "E[P] [W] ± CI",
                        "energy [J] ± CI", "viol%"});
    for (const ReplicatedResult &result : results) {
        // Normalize response metrics to service times, as resultsTable
        // does, using the per-replication normalized mean directly.
        const MetricSummary &norm = result.metric("normalized_mean");
        const MetricSummary &mean_s = result.metric("mean_response_s");
        const MetricSummary &p95 = result.metric("p95_response_s");
        const double service_mean =
            mean_s.mean() > 0.0 && norm.mean() > 0.0
                ? mean_s.mean() / norm.mean()
                : 1.0;
        MetricSummary p95_norm = p95;
        for (double &x : p95_norm.samples)
            x /= service_mean;
        table.addRow(
            {result.spec.label, toString(result.spec.engine),
             std::to_string(result.replications.size()),
             norm.toString(), p95_norm.toString(),
             result.metric("avg_power_w").toString(),
             result.metric("energy_j").toString(3),
             formatCell(100.0 * result.metric("qos_violation").mean(),
                        3)});
    }
    return table;
}

TablePrinter
pairedTable(const PairedComparison &comparison)
{
    TablePrinter table({"metric", "A - B mean", "± CI", "CI low",
                        "CI high", "significant?"});
    for (const MetricSummary &delta : comparison.deltas) {
        table.addRow({delta.name, formatCell(delta.mean(), 4),
                      formatCell(delta.ciHalfWidth(), 4),
                      formatCell(delta.ciLow(), 4),
                      formatCell(delta.ciHigh(), 4),
                      delta.excludesZero() ? "yes" : "no"});
    }
    return table;
}

std::string
replicatedToCsvString(const std::vector<ReplicatedResult> &results)
{
    // The union of metric names across rows, first-seen order, padded
    // blank where a row lacks the metric — one rectangular table for
    // mixed-engine result sets, like resultsToCsvString.
    std::vector<std::string> metric_names;
    for (const ReplicatedResult &result : results) {
        for (const MetricSummary &summary : result.metrics) {
            if (std::find(metric_names.begin(), metric_names.end(),
                          summary.name) == metric_names.end())
                metric_names.push_back(summary.name);
        }
    }

    std::ostringstream out;
    out << "label,engine,workload,strategy,predictor,seed,replications";
    for (const std::string &name : metric_names)
        out << ',' << name << "_mean," << name << "_sd," << name
            << "_ci95";
    out << '\n';

    for (const ReplicatedResult &result : results) {
        const ScenarioSpec &spec = result.spec;
        out << csvQuote(spec.label) << ',' << toString(spec.engine)
            << ',' << spec.workload << ',' << csvQuote(spec.strategy)
            << ',' << spec.predictor << ',' << spec.seed << ','
            << result.replications.size();
        for (const std::string &name : metric_names) {
            if (!result.hasMetric(name)) {
                out << ",,,";
                continue;
            }
            const MetricSummary &summary = result.metric(name);
            out << ',' << summary.mean() << ',' << summary.stddev()
                << ',' << summary.ciHalfWidth();
        }
        out << '\n';
    }
    return out.str();
}

void
writeReplicatedCsv(const std::string &path,
                   const std::vector<ReplicatedResult> &results)
{
    writeTextFile(path, replicatedToCsvString(results));
}

} // namespace sleepscale
