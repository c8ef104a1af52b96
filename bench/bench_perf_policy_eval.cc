/**
 * @file
 * Micro-benchmarks for the claims that make SleepScale viable at runtime:
 * Section 4.1 reports 6.3 ms to simulate one policy (10,000 jobs, Matlab)
 * and Section 5.1.1 argues the full per-epoch decision is negligible
 * against a minutes-long epoch. These benchmarks measure our equivalents.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>

#include "analytic/mm1_sleep.hh"
#include "core/eval_engine.hh"
#include "core/policy_manager.hh"
#include "experiment/runner.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "workload/job_source.hh"

namespace {

using namespace sleepscale;

std::vector<Job>
benchJobs(std::size_t count)
{
    StationarySource source(std::make_unique<ExponentialDist>(0.194 / 0.3),
                            std::make_unique<ExponentialDist>(0.194), 4242);
    return materialize(source, count);
}

QosConstraint
benchQos()
{
    return QosConstraint::fromBaselineMean(0.8, 0.194);
}

/** One policy characterization over a 10k-job log (paper: 6.3 ms). */
void
BM_EvaluatePolicy10k(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy,
                           jobs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            10000);
}
BENCHMARK(BM_EvaluatePolicy10k);

/** Raw simulator throughput in jobs/second. */
void
BM_ServerSimThroughput(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(static_cast<std::size_t>(state.range(0)));
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C6S0Idle)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy,
                           jobs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_ServerSimThroughput)->Arg(1000)->Arg(100000);

/** The full per-epoch decision: every (state, frequency) candidate over
 * a capped 4000-job log (what the runtime executes every T minutes). */
void
BM_PolicyManagerDecision(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(4000);
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(),
                                PolicySpace::standard(), benchQos());
    for (auto _ : state)
        benchmark::DoNotOptimize(manager.selectFromLog(jobs));
}
BENCHMARK(BM_PolicyManagerDecision);

/** The engine's inner kernel: one replayBlock() pass over a prepared
 * 10k-job log with range(0) candidates — 1 (a lone candidate, e.g. a
 * search's last, partly filled block) or replayWidth (a full block).
 * Items are candidate-jobs, so the two rates compare per candidate. */
void
BM_PreparedReplay10k(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const PreparedLog log = PreparedLog::fromJobs(benchJobs(10000));
    const auto lanes = static_cast<std::size_t>(state.range(0));
    // Lane l runs at f = 0.7 + 0.3 l / replayWidth, which stays in
    // (0, 1) for every lane of a full block at any block width.
    const auto frequency = [](std::size_t lane) {
        return 0.7 + 0.3 * static_cast<double>(lane) /
                         static_cast<double>(replayWidth);
    };
    std::vector<MaterializedPlan> plans;
    std::vector<ReplayCandidate> candidates;
    plans.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        plans.emplace_back(SleepPlan::immediate(LowPowerState::C6S3),
                           xeon, frequency(lane));
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        candidates.push_back(ReplayCandidate::of(
            plans[lane], xeon, ServiceScaling::cpuBound(),
            frequency(lane)));
    }
    std::vector<ReplayOutcome> outcomes(lanes);
    for (auto _ : state) {
        replayBlock(log, candidates, outcomes);
        benchmark::DoNotOptimize(outcomes.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            10000 * state.range(0));
}
BENCHMARK(BM_PreparedReplay10k)
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(replayWidth));

/** Full policy-space selection over a 10k-job log through the batched
 * engine (plan cache + block-replay kernel), serial. The headline
 * number: compare against BM_SelectFromLogNaive, the pre-engine path;
 * CI fails when the ratio of the two drops below 15. */
void
BM_SelectFromLog(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos());
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.selectFromLog(jobs));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(engine.lifetimeEvaluations()) * 10000);
}
BENCHMARK(BM_SelectFromLog);

/** The pre-engine baseline the engine replaces: one fresh ServerSim
 * (and plan materialization) per candidate, streamed job by job —
 * exactly what PolicyManager::selectFromLog executed before the
 * batched engine existed. Kept so the speedup stays measurable. */
void
BM_SelectFromLogNaive(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    const PolicySpace space = PolicySpace::standard();
    const QosConstraint qos = benchQos();
    const double rho = PreparedLog::fromJobs(jobs).offeredLoad();
    // The paper's stability floor, as the old serial loop applied it.
    const double f_floor = std::min(rho + 0.01, 0.999);

    for (auto _ : state) {
        double best_power = std::numeric_limits<double>::infinity();
        Policy best;
        for (const SleepPlan &plan : space.plans) {
            for (double f : space.frequencies) {
                if (f < f_floor)
                    continue;
                const Policy candidate{f, plan};
                const PolicyEvaluation eval = evaluatePolicy(
                    xeon, ServiceScaling::cpuBound(), candidate, jobs);
                const double metric = qos.measuredValue(eval.stats);
                if (metric <= qos.budget() &&
                    eval.avgPower() < best_power) {
                    best_power = eval.avgPower();
                    best = candidate;
                }
            }
        }
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_SelectFromLogNaive);

/** Engine selection with parallel candidate fan-out (bit-identical
 * decisions at any width). */
void
BM_SelectFromLogParallel(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos(),
                            static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.selectFromLog(jobs));
}
BENCHMARK(BM_SelectFromLogParallel)->Arg(2)->Arg(8);

/** The closed-form alternative the paper suggests as future work. */
void
BM_AnalyticDecision(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const double mu = 1.0 / 0.194;
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(), PolicySpace::standard(),
        QosConstraint::fromBaselineMean(0.8, 0.194));
    for (auto _ : state)
        benchmark::DoNotOptimize(manager.selectAnalytic(0.3 * mu, mu));
}
BENCHMARK(BM_AnalyticDecision);

/** A single closed-form policy evaluation. */
void
BM_AnalyticSingleEvaluation(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.meanPower(policy, 0.3 * mu, mu));
        benchmark::DoNotOptimize(
            model.meanResponse(policy, 0.3 * mu, mu));
    }
}
BENCHMARK(BM_AnalyticSingleEvaluation);

/** Sweep-grid expansion cost in the experiment layer (pure API
 * overhead: a 10 x 10 x 10 grid of specs, no simulation). */
void
BM_ExperimentGridExpansion(benchmark::State &state)
{
    ScenarioSpec base;
    base.label = "grid";
    base.trace = {.kind = "flat", .flatLevel = 0.1, .flatMinutes = 30};
    std::vector<unsigned> epochs;
    std::vector<double> alphas;
    std::vector<std::uint64_t> seed_values;
    for (unsigned i = 1; i <= 10; ++i) {
        epochs.push_back(i);
        alphas.push_back(0.05 * i);
        seed_values.push_back(i);
    }
    const SweepAxis seeds = sweep("seed", &ScenarioSpec::seed, seed_values);
    for (auto _ : state) {
        benchmark::DoNotOptimize(expandGrid(
            base, {sweep("T", &RuntimeConfig::epochMinutes, epochs),
                   sweep("alpha", &RuntimeConfig::overProvision, alphas),
                   seeds}));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_ExperimentGridExpansion);

/** One fixed-policy scenario end-to-end through the unified entry
 * point (trace synthesis + job generation + epoch loop), the per-
 * scenario cost a sweep pays beyond the policy search itself. */
void
BM_ExperimentScenarioFixedPolicy(benchmark::State &state)
{
    ScenarioSpec spec;
    spec.label = "r2h day";
    spec.trace = {.kind = "flat", .flatLevel = 0.1, .flatMinutes = 20};
    spec.strategy = "R2H(C6)";
    spec.predictor = "NP";
    spec.seed = 4242;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ExperimentRunner::runScenario(spec));
    }
}
BENCHMARK(BM_ExperimentScenarioFixedPolicy);

} // namespace
