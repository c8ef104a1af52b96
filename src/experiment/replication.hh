/**
 * @file
 * Replicated experiments with confidence intervals.
 *
 * A single simulation run is one Monte-Carlo draw: "SleepScale beats
 * fixed-frequency by X%" from one seed carries no error bar. This layer
 * runs any ScenarioSpec N times under derived per-replication seeds and
 * summarizes every metric (energy, average power, mean/p95/p99
 * response, QoS violation rate, per-state residencies, every engine
 * extra) with a mean, standard deviation, and 95% Student-t confidence
 * interval (the level is fixed, ciLevel):
 *
 *   spec.replications = 20;
 *   const ReplicatedResult r = ExperimentRunner::runReplicated(spec);
 *   r.metric("avg_power_w").mean();         // E[P] across replications
 *   r.metric("avg_power_w").ciHalfWidth();  // 95% CI half width
 *
 * Paired comparison with common random numbers sharpens A-vs-B deltas:
 * comparePaired() reuses the same replication seeds for both scenarios,
 * so the job streams are identical and the paired-t interval on the
 * per-replication difference cancels the stream-to-stream noise. A
 * predictor or strategy ordering is "statistically qualified" when the
 * paired CI on its delta excludes zero.
 *
 * Replications fan out through one path, ExperimentRunner's
 * runReplicated(): every (scenario, replication) pair of its queue is
 * one item of a util/thread_pool fan-out, stored by index and reduced
 * in index order, so — like the policy-evaluation engine — any pool
 * width is bit-identical to a sequential run. Lanes write disjoint
 * slots of the result buffer and never share a mutable scenario (each
 * replication copies the spec); docs/CONCURRENCY.md documents the
 * discipline and the TSan CI job enforces it. Methodology,
 * seed-derivation and Student-t assumptions are documented in
 * docs/STATISTICS.md.
 */

#ifndef SLEEPSCALE_EXPERIMENT_REPLICATION_HH
#define SLEEPSCALE_EXPERIMENT_REPLICATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hh"

namespace sleepscale {

/** Two-sided coverage level of every replicated confidence interval
 * (the "ci95" CSV columns). */
constexpr double ciLevel = 0.95;

/**
 * One metric summarized across replications: the per-replication
 * samples (index order) plus mean / stddev / Student-t CI accessors.
 * Brace-initialize it from raw samples ({name, samples}) to apply the
 * replication layer's CI math outside ScenarioSpec, as the analytic
 * coverage oracle in tests/statistics_test.cc does.
 */
struct MetricSummary
{
    std::string name;            ///< Metric key, e.g. "avg_power_w".
    std::vector<double> samples; ///< One value per replication.

    /** Number of replications summarized. */
    std::size_t count() const { return samples.size(); }

    /** Sample mean across replications; 0 when empty. */
    double mean() const;

    /** Unbiased sample standard deviation; 0 below two samples. */
    double stddev() const;

    /**
     * Student-t confidence-interval half width t* · s / sqrt(n) at
     * ciLevel; 0 below two samples.
     */
    double ciHalfWidth() const;

    /** Lower CI endpoint, mean() - ciHalfWidth(). */
    double ciLow() const { return mean() - ciHalfWidth(); }

    /** Upper CI endpoint, mean() + ciHalfWidth(). */
    double ciHigh() const { return mean() + ciHalfWidth(); }

    /** Whether the CI covers `value` (endpoints inclusive). */
    bool covers(double value) const;

    /**
     * Whether the CI excludes zero — the delta is significant. Always
     * false below two samples: one Monte-Carlo draw has a zero-width
     * interval, and claiming significance from it would be exactly
     * the anecdote this layer exists to prevent.
     */
    bool excludesZero() const
    {
        return samples.size() >= 2 && !covers(0.0);
    }

    /** Printable "mean ± halfwidth" with `precision` digits. */
    std::string toString(int precision = 4) const;
};

/** Outcome of a replicated scenario: N runs plus per-metric CIs. */
struct ReplicatedResult
{
    ScenarioSpec spec; ///< Base scenario (original seed).

    /** Per-replication results, replication-index order; replication i
     * ran with seed replicationSeed(spec.seed, i). */
    std::vector<ScenarioResult> replications;

    /** Per-metric summaries: the core metrics (mean_response_s,
     * p95_response_s, p99_response_s, avg_power_w, energy_j,
     * qos_violation) plus every engine extra — the availability
     * plane, the per-state residency_* and state_* mix, and the
     * decision-time and regret extras when the spec asks for them.
     * Every replication of one spec reports the same metrics in the
     * same order. */
    std::vector<MetricSummary> metrics;

    /** Summary of a named metric; fatal() listing the known names when
     * absent. */
    const MetricSummary &metric(const std::string &name) const;

    /** Whether a named metric was summarized. */
    bool hasMetric(const std::string &name) const;
};

/**
 * The seed replication `index` of a scenario seeded `base` runs with:
 * one splitmix64 step of base + (index + 1) · golden-ratio increment.
 * Deterministic, decorrelated across replications, and shared across
 * scenarios — the foundation of common random numbers (replication i
 * of spec A and of spec B see identical job streams when both derive
 * from the same base seed).
 */
std::uint64_t replicationSeed(std::uint64_t base, std::size_t index);

/**
 * A paired A-vs-B comparison under common random numbers: both
 * scenarios ran the same replication seeds, and `deltas` holds the
 * paired-t summary of the per-replication difference (A minus B) for
 * every shared metric, plus "energy_savings_pct" and
 * "power_savings_pct" (100 · (1 - A/B), positive when A is cheaper).
 */
struct PairedComparison
{
    ReplicatedResult a; ///< First scenario's replicated result.
    ReplicatedResult b; ///< Second scenario's replicated result.

    /** Paired per-replication deltas (A - B), one per shared metric. */
    std::vector<MetricSummary> deltas;

    /** Delta summary of a named metric; fatal() when absent. */
    const MetricSummary &delta(const std::string &name) const;

    /** Whether the paired CI on a named delta excludes zero. */
    bool significant(const std::string &name) const
    {
        return delta(name).excludesZero();
    }
};

/**
 * Run two scenarios under common random numbers and report paired
 * deltas. Both run a.replications replications under the seeds derived
 * from a.seed (b's own seed and replication count are ignored), so
 * replication i of each sees the identical job stream. Both arms are
 * queued on one ExperimentRunner and share its worker pool; any width
 * is bit-identical to a sequential run.
 *
 * @param threads Fan-out width (0 = hardware, 1 = sequential).
 */
PairedComparison comparePaired(const ScenarioSpec &a, const ScenarioSpec &b,
                               std::size_t threads = 1);

/**
 * Standard replicated-results table: label, engine, n, and mean ± CI
 * columns for µE[R], p95 (service times), E[P] watts, energy, and the
 * QoS violation rate.
 */
TablePrinter replicationTable(const std::vector<ReplicatedResult> &results);

/**
 * Paired-comparison table: one row per delta metric with the paired
 * mean, CI, and significance verdict.
 */
TablePrinter pairedTable(const PairedComparison &comparison);

/**
 * Serialize replicated results as CSV: scenario identity columns, n,
 * then <metric>_mean, <metric>_sd, <metric>_ci95 triples for the
 * union of metrics across rows (blank where a row lacks the metric).
 */
std::string
replicatedToCsvString(const std::vector<ReplicatedResult> &results);

/** Write replicatedToCsvString() to a file, fatal() on I/O failure. */
void writeReplicatedCsv(const std::string &path,
                        const std::vector<ReplicatedResult> &results);

} // namespace sleepscale

#endif // SLEEPSCALE_EXPERIMENT_REPLICATION_HH
