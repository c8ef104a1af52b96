/**
 * @file
 * Tests for the batched policy-evaluation engine: selection stability
 * across epochs, block-replay-kernel-vs-streaming equivalence,
 * lane-position independence, bit-identity of the kernel's two bodies,
 * and parallel-vs-serial bit-equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "core/eval_engine.hh"
#include "core/policy_manager.hh"
#include "power/platform_model.hh"
#include "sim/pending_queue.hh"
#include "sim/replay_kernel.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

std::vector<Job>
poissonLog(double rho, double service_mean, std::size_t n,
           std::uint64_t seed = 42)
{
    StationarySource source(
        std::make_unique<ExponentialDist>(service_mean / rho),
        std::make_unique<ExponentialDist>(service_mean), seed);
    return materialize(source, n);
}

void
expectIdenticalDecisions(const PolicyDecision &a, const PolicyDecision &b)
{
    EXPECT_EQ(a.policy.frequency, b.policy.frequency);
    EXPECT_EQ(a.policy.plan.toString(), b.policy.plan.toString());
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.predictedPower, b.predictedPower);
    EXPECT_EQ(a.predictedMetric, b.predictedMetric);
}

class EvalEngineTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    QosConstraint qos = QosConstraint::fromBaselineMean(0.8, 0.194);
};

// ------------------------------------------------------- the plan cache

TEST_F(EvalEngineTest, CachePersistsAcrossSelections)
{
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), qos);
    const auto log = poissonLog(0.3, 0.194, 3000);

    const PolicyDecision first = engine.selectFromLog(log);
    const std::uint64_t after_first = engine.lifetimeEvaluations();
    const PolicyDecision second = engine.selectFromLog(log);

    // Same log, same configuration: identical decision, and the second
    // epoch performs the same number of evaluations over the cached
    // space (no rebuild effects).
    expectIdenticalDecisions(first, second);
    EXPECT_EQ(after_first, first.evaluated);
    EXPECT_EQ(engine.lifetimeEvaluations() - after_first,
              second.evaluated);
}

// ------------------------------- the block-replay kernel vs streaming

/** The kernel's candidate set: every immediate plan, a delayed and a
 * five-stage throttle-back plan, each at three frequencies. */
std::vector<Policy>
kernelPolicies()
{
    std::vector<SleepPlan> plans;
    for (const LowPowerState state : allLowPowerStates)
        plans.push_back(SleepPlan::immediate(state));
    plans.push_back(SleepPlan::delayed(LowPowerState::C6S3, 0.1));
    plans.push_back(SleepPlan::throttleBack({0.01, 0.05, 0.1, 0.5}));
    std::vector<Policy> policies;
    for (const SleepPlan &plan : plans) {
        for (const double f : {0.4, 0.7, 1.0})
            policies.push_back({f, plan});
    }
    return policies;
}

/** A policy space mixing immediate, delayed and throttle-back plans
 * (one to five stages) over the standard frequency grid. */
PolicySpace
mixedSpace()
{
    PolicySpace space;
    space.frequencies = PolicySpace::frequencyGrid(0.30, 1.0, 0.05);
    space.plans = {SleepPlan::immediate(LowPowerState::C0IdleS0Idle),
                   SleepPlan::delayed(LowPowerState::C6S3, 0.1),
                   SleepPlan::throttleBack({0.01, 0.05, 0.1, 0.5}),
                   SleepPlan::immediate(LowPowerState::C6S0Idle),
                   SleepPlan::delayed(LowPowerState::C3S0Idle, 0.02)};
    return space;
}

/** One candidate replayed alone: its outcome and its p95 response. */
struct Replayed
{
    ReplayOutcome outcome;
    double p95 = 0.0;
};

/** A hand-built log for one candidate: the first job arrives at
 * `first_arrival` (+0.0 or -0.0, which PreparedLog accepts), the second
 * exactly at the first one's departure, a zero-size job arrives while
 * busy and another one idle, two jobs share an arrival instant, and the
 * last job arrives exactly at its predecessor's departure after an idle
 * gap. Under a zero-wake plan (one that descends from C0(i)S0(i)) both
 * exact arrivals find the server idle with nothing to wake from. */
std::vector<Job>
edgeLog(const Policy &policy, const PlatformModel &platform,
        ServiceScaling scaling, double first_arrival)
{
    const MaterializedPlan plan(policy.plan, platform, policy.frequency);
    const double first_departure =
        first_arrival + plan.wakeLatency(0) +
        0.3 * scaling.factor(policy.frequency);
    std::vector<Job> jobs = {{first_arrival, 0.3},
                             {first_departure, 0.2},
                             {first_departure + 0.01, 0.0},
                             {5.0, 0.0},
                             {5.0, 0.1},
                             {9.0, 0.4}};
    // The streaming simulator's departure of the 9.0 job.
    ServerSim sim(platform, scaling, policy);
    for (const Job &job : jobs)
        sim.offerJob(job);
    jobs.push_back({sim.nextFreeTime(), 0.2});
    return jobs;
}

Replayed
replayAlone(const PreparedLog &log, const ReplayCandidate &candidate)
{
    Replayed replayed;
    QuantileHistogram tail = SimStats{}.responseHistogram;
    replayBlock(log, {&candidate, 1}, {&replayed.outcome, 1},
                {&tail, 1});
    replayed.p95 = tail.percentile(95.0);
    return replayed;
}

TEST_F(EvalEngineTest, KernelMatchesStreamingEvaluation)
{
    const ServiceScaling scaling = ServiceScaling::cpuBound();
    const std::vector<Job> poisson = poissonLog(0.25, 0.194, 8000, 7);
    // The extremes of the load range, where the kernel's power leans on
    // a cancellation: at ρ = 0.005 the busy time is the span minus an
    // idle time almost as long, and at ρ = 0.99 the idle time is a sum
    // of slivers.
    const std::vector<Job> nearly_idle = poissonLog(0.005, 0.194, 20000, 5);
    const std::vector<Job> nearly_saturated =
        poissonLog(0.99, 0.194, 20000, 11);

    std::size_t zero_wake = 0;
    for (const Policy &policy : kernelPolicies()) {
        const MaterializedPlan plan(policy.plan, xeon, policy.frequency);
        const ReplayCandidate candidate =
            ReplayCandidate::of(plan, xeon, scaling, policy.frequency);
        zero_wake += plan.wakeLatency(0) == 0.0 ? 1 : 0;

        const std::vector<Job> edges = edgeLog(policy, xeon, scaling, 0.0);
        const std::vector<Job> signed_zero =
            edgeLog(policy, xeon, scaling, -0.0);
        const std::vector<Job> single = {{2.0, 0.25}};

        for (const std::vector<Job> *jobs :
             {&poisson, &nearly_idle, &nearly_saturated, &edges,
              &signed_zero, &single}) {
            const PolicyEvaluation streamed =
                evaluatePolicy(xeon, scaling, policy, *jobs);
            const Replayed replayed =
                replayAlone(PreparedLog::fromJobs(*jobs), candidate);
            const std::string where =
                policy.plan.toString() + " f=" +
                std::to_string(policy.frequency) + " jobs=" +
                std::to_string(jobs->size()) + " first=" +
                std::to_string(jobs->front().arrival);
            EXPECT_EQ(replayed.outcome.meanResponse,
                      streamed.meanResponse())
                << where;
            EXPECT_EQ(replayed.p95, streamed.p95Response()) << where;
            EXPECT_NEAR(replayed.outcome.avgPower / streamed.avgPower(),
                        1.0, 1e-12)
                << where;
        }
    }
    // The edge logs' exact-departure arrivals met zero-wake plans.
    EXPECT_GT(zero_wake, 0u);
}

TEST_F(EvalEngineTest, KernelLaneOutcomeIndependentOfBlockPosition)
{
    const ServiceScaling scaling = ServiceScaling::cpuBound();
    const PreparedLog log =
        PreparedLog::fromJobs(poissonLog(0.3, 0.194, 3000, 13));

    // Plans with one, two and five stages, so every block mixes stage
    // counts and pads the shorter plans.
    const std::vector<Policy> policies = {
        {0.5, SleepPlan::immediate(LowPowerState::C6S3)},
        {0.7, SleepPlan::delayed(LowPowerState::C6S3, 0.1)},
        {0.9, SleepPlan::throttleBack({0.01, 0.05, 0.1, 0.5})},
        {0.6, SleepPlan::immediate(LowPowerState::C1S0Idle)}};
    std::vector<MaterializedPlan> plans;
    std::vector<ReplayCandidate> candidates;
    plans.reserve(policies.size());
    for (const Policy &policy : policies)
        plans.emplace_back(policy.plan, xeon, policy.frequency);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        candidates.push_back(ReplayCandidate::of(
            plans[i], xeon, scaling, policies[i].frequency));
    }

    for (std::size_t target = 0; target < candidates.size(); ++target) {
        const Replayed alone = replayAlone(log, candidates[target]);
        for (std::size_t width = 2; width <= replayWidth; ++width) {
            for (std::size_t position = 0; position < width; ++position) {
                // Fill the other lanes with the remaining candidates.
                std::array<ReplayCandidate, replayWidth> block;
                std::size_t filler = (target + 1) % candidates.size();
                for (std::size_t lane = 0; lane < width; ++lane) {
                    if (lane == position) {
                        block[lane] = candidates[target];
                        continue;
                    }
                    block[lane] = candidates[filler];
                    filler = (filler + 1) % candidates.size();
                }
                std::array<ReplayOutcome, replayWidth> outcomes;
                std::vector<QuantileHistogram> tails(
                    width, SimStats{}.responseHistogram);
                replayBlock(log, std::span(block).first(width),
                            std::span(outcomes).first(width), tails);

                EXPECT_EQ(outcomes[position].avgPower,
                          alone.outcome.avgPower)
                    << "target " << target << " width " << width
                    << " position " << position;
                EXPECT_EQ(outcomes[position].meanResponse,
                          alone.outcome.meanResponse);
                EXPECT_EQ(tails[position].percentile(95.0), alone.p95);
            }
        }
    }
}

TEST_F(EvalEngineTest, KernelRejectsMalformedBlocks)
{
    const PreparedLog log = PreparedLog::fromJobs({{1.0, 0.1}});
    const MaterializedPlan plan(
        SleepPlan::immediate(LowPowerState::C6S3), xeon, 0.5);
    const ReplayCandidate candidate = ReplayCandidate::of(
        plan, xeon, ServiceScaling::cpuBound(), 0.5);
    std::array<ReplayCandidate, replayWidth + 1> lanes;
    lanes.fill(candidate);
    std::array<ReplayOutcome, replayWidth + 1> outcomes;

    EXPECT_THROW(replayBlock(log, {}, {}), ConfigError);
    EXPECT_THROW(replayBlock(log, lanes, outcomes), ConfigError);
    EXPECT_THROW(replayBlock(log, std::span(lanes).first(2),
                             std::span(outcomes).first(1)),
                 ConfigError);
    QuantileHistogram tail = SimStats{}.responseHistogram;
    EXPECT_THROW(replayBlock(log, std::span(lanes).first(2),
                             std::span(outcomes).first(2), {&tail, 1}),
                 ConfigError);
    const ReplayCandidate planless;
    EXPECT_THROW(replayBlock(log, {&planless, 1},
                             std::span(outcomes).first(1)),
                 ConfigError);
}

/** Every candidate of `candidates`, replayed in consecutive blocks of
 * `width` through `kernel`: each one's outcome and p95 response. */
std::vector<Replayed>
replayInBlocks(ReplayKernel kernel, const PreparedLog &log,
               const std::vector<ReplayCandidate> &candidates,
               std::size_t width)
{
    std::vector<Replayed> replayed(candidates.size());
    std::vector<ReplayOutcome> outcomes(width);
    std::vector<QuantileHistogram> tails(width,
                                         SimStats{}.responseHistogram);
    for (std::size_t first = 0; first < candidates.size();
         first += width) {
        const std::size_t count =
            std::min(width, candidates.size() - first);
        replayBlockWith(kernel, log,
                        std::span(candidates).subspan(first, count),
                        std::span(outcomes).first(count),
                        std::span(tails).first(count));
        for (std::size_t j = 0; j < count; ++j) {
            replayed[first + j].outcome = outcomes[j];
            replayed[first + j].p95 = tails[j].percentile(95.0);
        }
    }
    return replayed;
}

TEST_F(EvalEngineTest, KernelBodiesAreBitIdentical)
{
    if (activeReplayKernel() != ReplayKernel::Avx2)
        GTEST_SKIP() << "this host cannot run the AVX2 body";

    // Every candidate of a space mixing one- to five-stage plans.
    const ServiceScaling scaling = ServiceScaling::cpuBound();
    const PolicySpace space = mixedSpace();
    std::vector<MaterializedPlan> plans;
    std::vector<ReplayCandidate> candidates;
    std::vector<std::string> names;
    plans.reserve(space.size());
    for (const SleepPlan &plan : space.plans) {
        for (const double f : space.frequencies) {
            plans.emplace_back(plan, xeon, f);
            candidates.push_back(
                ReplayCandidate::of(plans.back(), xeon, scaling, f));
            names.push_back(plan.toString() + " f=" + std::to_string(f));
        }
    }

    const auto expect_identical = [&](const std::vector<Job> &jobs,
                                      const std::string &log_name) {
        const PreparedLog log = PreparedLog::fromJobs(jobs);
        for (std::size_t width = 1; width <= replayWidth; ++width) {
            const std::vector<Replayed> sse2 = replayInBlocks(
                ReplayKernel::Sse2, log, candidates, width);
            const std::vector<Replayed> avx2 = replayInBlocks(
                ReplayKernel::Avx2, log, candidates, width);
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                EXPECT_EQ(avx2[c].outcome.avgPower,
                          sse2[c].outcome.avgPower)
                    << log_name << " width " << width << " " << names[c];
                EXPECT_EQ(avx2[c].outcome.meanResponse,
                          sse2[c].outcome.meanResponse)
                    << log_name << " width " << width << " " << names[c];
                EXPECT_EQ(avx2[c].p95, sse2[c].p95)
                    << log_name << " width " << width << " " << names[c];
            }
        }
    };

    // The logs of KernelMatchesStreamingEvaluation.
    expect_identical(poissonLog(0.25, 0.194, 8000, 7), "poisson");
    expect_identical({{2.0, 0.25}}, "single");
    for (const Policy &policy : kernelPolicies()) {
        for (const double first : {0.0, -0.0}) {
            expect_identical(edgeLog(policy, xeon, scaling, first),
                             "edges of " + policy.plan.toString() +
                                 " f=" + std::to_string(policy.frequency) +
                                 " first=" + std::to_string(first));
        }
    }
}

TEST(ReplayKernel, ActiveBodyIsAvx2WhereTheCpuHasIt)
{
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2"))
        GTEST_SKIP() << "the CPU reports no AVX2";
    EXPECT_EQ(activeReplayKernel(), ReplayKernel::Avx2);
#else
    GTEST_SKIP() << "the AVX2 body exists on x86 only";
#endif
}

// ------------------------------------------- engine vs the legacy loop

TEST_F(EvalEngineTest, EngineMatchesNaivePerCandidateLoop)
{
    const auto jobs = poissonLog(0.3, 0.194, 6000, 3);
    const PolicySpace space = PolicySpace::standard();
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(), space, qos);
    const PolicyDecision decision = engine.selectFromLog(jobs);

    // Reproduce the pre-engine selection: a fresh streaming simulation
    // per candidate.
    const double rho = PreparedLog::fromJobs(jobs).offeredLoad();
    const double f_floor = engine.minStableFrequency(rho);
    double best_power = std::numeric_limits<double>::infinity();
    Policy best;
    double best_metric = 0.0;
    std::uint64_t evaluated = 0;
    for (const SleepPlan &plan : space.plans) {
        for (double f : space.frequencies) {
            if (f < f_floor)
                continue;
            const Policy candidate{f, plan};
            const PolicyEvaluation eval = evaluatePolicy(
                xeon, ServiceScaling::cpuBound(), candidate, jobs);
            ++evaluated;
            const double metric = qos.measuredValue(eval.stats);
            if (metric <= qos.budget() && eval.avgPower() < best_power) {
                best_power = eval.avgPower();
                best = candidate;
                best_metric = metric;
            }
        }
    }

    EXPECT_EQ(decision.evaluated, evaluated);
    EXPECT_TRUE(decision.feasible);
    EXPECT_EQ(decision.policy.frequency, best.frequency);
    EXPECT_EQ(decision.policy.plan.toString(), best.plan.toString());
    EXPECT_NEAR(decision.predictedPower / best_power, 1.0, 1e-12);
    EXPECT_NEAR(decision.predictedMetric / best_metric, 1.0, 1e-12);
}

// --------------------------------------- parallel-vs-serial bit-equality

TEST_F(EvalEngineTest, ParallelSelectionBitMatchesSerial)
{
    const QosConstraint tail_qos =
        QosConstraint::fromBaselineTail(0.8, 0.194);
    for (const PolicySpace &space :
         {PolicySpace::standard(), mixedSpace()}) {
        for (const QosConstraint &constraint : {qos, tail_qos}) {
            PolicyEvalEngine serial(xeon, ServiceScaling::cpuBound(),
                                    space, constraint);
            for (const double rho : {0.1, 0.3, 0.6}) {
                const auto log =
                    poissonLog(rho, 0.194, 5000,
                               static_cast<std::uint64_t>(rho * 100));
                const PolicyDecision reference = serial.selectFromLog(log);
                for (const std::size_t threads :
                     {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
                    PolicyEvalEngine parallel(xeon,
                                              ServiceScaling::cpuBound(),
                                              space, constraint, threads);
                    const PolicyDecision decision =
                        parallel.selectFromLog(log);
                    expectIdenticalDecisions(reference, decision);
                    EXPECT_EQ(reference.evaluated, decision.evaluated);
                }
            }
        }
    }
}

// ---------------------------------------------------------- validation

TEST_F(EvalEngineTest, ValidationMatchesPolicyManager)
{
    PolicySpace empty;
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(), empty,
                                  qos),
                 ConfigError);

    PolicySpace bad_freq = PolicySpace::standard();
    bad_freq.frequencies.push_back(1.5);
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(),
                                  bad_freq, qos),
                 ConfigError);

    PolicySpace nan_freq = PolicySpace::standard();
    nan_freq.frequencies.push_back(std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(),
                                  nan_freq, qos),
                 ConfigError);
}

// ------------------------------------------------------- prepared logs

TEST_F(EvalEngineTest, PreparedLogTotalsAndValidation)
{
    const std::vector<Job> jobs = {{1.0, 0.2}, {2.0, 0.4}, {4.0, 0.1}};
    const PreparedLog log = PreparedLog::fromJobs(jobs);
    EXPECT_EQ(log.count(), 3u);
    // Summed in job order, so the totals are exact.
    const double demand = 0.2 + 0.4 + 0.1;
    EXPECT_EQ(log.totalDemand(), demand);
    EXPECT_EQ(log.meanSize(), demand / 3.0);
    EXPECT_EQ(log.offeredLoad(), demand / 4.0);
    // One job spans no interval, so it has no offered load.
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, 0.1}}).offeredLoad(),
                 ConfigError);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(PreparedLog::fromJobs({}), ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{2.0, 0.1}, {1.0, 0.1}}),
                 ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, -0.1}}), ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, 0.1}, {2.0, nan}}),
                 ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, 0.1}, {nan, 0.1}}),
                 ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, 0.1}, {2.0, inf}}),
                 ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, 0.1}, {inf, 0.1}}),
                 ConfigError);

    // A non-finite size used to reach the search, which then returned a
    // candidate it never evaluated; the engine now refuses the log.
    std::vector<Job> poisoned = poissonLog(0.3, 0.194, 100, 3);
    poisoned[50].size = inf;
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), qos);
    EXPECT_THROW(engine.selectFromLog(poisoned), ConfigError);
}

// ------------------------------------------------- pending-queue ring

TEST(PendingQueueTest, FifoAcrossWrapAround)
{
    PendingQueue queue;
    // Push/pop more entries than the initial slab to force wrapping.
    std::size_t pushed = 0;
    std::size_t popped = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 17; ++i) {
            queue.push(static_cast<double>(pushed), 0.5);
            ++pushed;
        }
        for (int i = 0; i < 13; ++i) {
            ASSERT_FALSE(queue.empty());
            EXPECT_EQ(queue.front().depart,
                      static_cast<double>(popped));
            queue.pop();
            ++popped;
        }
    }
    EXPECT_EQ(queue.size(), pushed - popped);
    while (!queue.empty()) {
        EXPECT_EQ(queue.front().depart, static_cast<double>(popped));
        queue.pop();
        ++popped;
    }
    EXPECT_EQ(popped, pushed);
}

} // namespace
} // namespace sleepscale
