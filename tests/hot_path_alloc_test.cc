/**
 * @file
 * Heap allocations on the per-job hot paths. A passing fatalIf() check
 * must cost no allocation, and the structures a job touches stop
 * growing once warm, so after warm-up these paths allocate nothing per
 * job: a log prepared for the candidate search (or a history rescaled
 * into a reused one), a block of candidates replayed over it, a whole
 * mean-QoS search, an arrival at a ServerSim or at a ServerFarm, a
 * response sample in a histogram. The rescale's arithmetic is checked
 * here too, on a hand-worked history.
 *
 * The file replaces the global operator new to count calls, which is
 * why it is a test binary of its own.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/eval_engine.hh"
#include "core/policy_space.hh"
#include "core/qos.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/quantile_histogram.hh"
#include "workload/distribution.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace sleepscale {
namespace {

/** Heap allocations made while `body` runs. */
template <typename Body>
std::uint64_t
allocationsOf(const Body &body)
{
    const std::uint64_t before = allocations.load();
    body();
    return allocations.load() - before;
}

/** Poisson arrivals of exponential DNS-sized jobs offering `load`
 * busy servers' worth of work. */
std::vector<Job>
poissonJobs(double load, std::size_t count, std::uint64_t seed)
{
    const double size = dnsWorkload().serviceMean;
    StationarySource source(std::make_unique<ExponentialDist>(size / load),
                            std::make_unique<ExponentialDist>(size), seed);
    return materialize(source, count);
}

const Policy policy{1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)};

// One decision prepares a log of up to evalLogCap = 4000 jobs: its two
// arrays are the only allocations, whatever the log length.
TEST(HotPathAllocations, PreparedLogAllocatesOnlyItsTwoArrays)
{
    const std::vector<Job> jobs = poissonJobs(0.3, 4000, 3);
    PreparedLog log;
    EXPECT_EQ(allocationsOf([&] { log = PreparedLog::fromJobs(jobs); }),
              2u);
    EXPECT_EQ(log.count(), jobs.size());
}

// Each decision rescales its history into a log its decision lane
// reuses: once the arrays have grown, a rescale allocates nothing.
TEST(HotPathAllocations, RescaleIntoAGrownLogAllocatesNothing)
{
    const std::vector<Job> history = poissonJobs(0.3, 4000, 4);
    PreparedLog log;
    ASSERT_TRUE(rescaleHistoryToPrediction(history, 0.5, log));
    EXPECT_EQ(allocationsOf([&] {
                  EXPECT_TRUE(rescaleHistoryToPrediction(history, 0.2, log));
              }),
              0u);
    EXPECT_EQ(log.count(), history.size());
}

// The rescale on a history whose arithmetic is exact in binary: span 6
// s, measured load (jobs 1 and 2) 1.5 / 6 = 0.25, so a prediction of
// 0.5 halves every gap and a prediction of 0 is clamped to 0.01, which
// stretches them 25 times. The first job lands one rescaled mean gap
// (3 s before scaling) in, and the demand sums every size, job 0
// included.
TEST(HotPathAllocations, RescaleMatchesAHandWorkedHistory)
{
    const std::vector<Job> history = {{10.0, 0.5}, {12.0, 1.0},
                                      {16.0, 0.5}};
    PreparedLog log;
    const auto expect_log = [&](const std::array<double, 3> &arrivals) {
        ASSERT_EQ(log.count(), history.size());
        for (std::size_t j = 0; j < history.size(); ++j) {
            EXPECT_EQ(log.arrival[j], arrivals[j]) << "job " << j;
            EXPECT_EQ(log.size[j], history[j].size) << "job " << j;
        }
        EXPECT_EQ(log.demand, 2.0);
    };
    ASSERT_TRUE(rescaleHistoryToPrediction(history, 0.5, log));
    expect_log({1.5, 2.5, 4.5});
    ASSERT_TRUE(rescaleHistoryToPrediction(history, 0.0, log));
    expect_log({75.0, 125.0, 225.0});
}

// Too thin or degenerate a history gives no log, and clears the one
// the previous decision left.
TEST(HotPathAllocations, DegenerateHistoriesGiveNoLog)
{
    const std::vector<std::vector<Job>> degenerate = {
        {},                         // no job
        {{3.0, 0.4}},               // one job
        {{3.0, 0.4}, {3.0, 0.2}},   // zero span
        {{3.0, 0.4}, {5.0, 0.0}}};  // zero demand after job 0
    for (const std::vector<Job> &history : degenerate) {
        PreparedLog log = PreparedLog::fromJobs({{1.0, 0.1}, {2.0, 0.1}});
        EXPECT_FALSE(rescaleHistoryToPrediction(history, 0.3, log));
        EXPECT_EQ(log.count(), 0u);
        EXPECT_EQ(log.demand, 0.0);
    }
}

// A whole serial mean-QoS search over a prepared log allocates nothing:
// the engine's tables are sized at construction, and the decision's
// policy keeps its sleep plan inline.
TEST(HotPathAllocations, MeanQosSelectionAllocatesNothing)
{
    const PlatformModel xeon = PlatformModel::xeon();
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(),
                            QosConstraint::fromBaselineMean(0.8, 0.194));
    const PreparedLog log = PreparedLog::fromJobs(poissonJobs(0.3, 4000, 6));
    PolicyDecision decision;
    EXPECT_EQ(allocationsOf([&] { decision = engine.selectFromLog(log); }),
              0u);
    EXPECT_TRUE(decision.feasible);
    EXPECT_EQ(decision.evaluated, engine.lifetimeEvaluations());
}

// A full block of a mean-QoS search: sixteen candidates replayed side
// by side, with no tail histograms, allocate nothing at all.
TEST(HotPathAllocations, FullMeanQosReplayBlockAllocatesNothing)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const PreparedLog log = PreparedLog::fromJobs(poissonJobs(0.3, 4000, 9));
    std::vector<MaterializedPlan> plans;
    std::vector<ReplayCandidate> candidates;
    plans.reserve(replayWidth);
    for (std::size_t lane = 0; lane < replayWidth; ++lane) {
        const double f = 0.5 + 0.5 * static_cast<double>(lane) /
                                   static_cast<double>(replayWidth);
        plans.emplace_back(
            SleepPlan::immediate(allLowPowerStates[lane %
                                                   numLowPowerStates]),
            xeon, f);
        candidates.push_back(ReplayCandidate::of(
            plans.back(), xeon, ServiceScaling::cpuBound(), f));
    }
    std::vector<ReplayOutcome> outcomes(replayWidth);
    EXPECT_EQ(allocationsOf([&] {
                  replayBlock(log, candidates, outcomes);
              }),
              0u);
    for (const ReplayOutcome &outcome : outcomes)
        EXPECT_GT(outcome.meanResponse, 0.0);
}

// Once the departure queue and the response histogram are sized, an
// arrival at a server allocates nothing.
TEST(HotPathAllocations, ServerSimOfferJobAllocatesNothingWhenWarm)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const std::vector<Job> jobs = poissonJobs(0.3, 24000, 5);
    ServerSim sim(xeon, ServiceScaling::cpuBound(), policy);
    const std::size_t warm = 4000;
    for (std::size_t i = 0; i < warm; ++i)
        sim.offerJob(jobs[i]);
    EXPECT_EQ(allocationsOf([&] {
                  for (std::size_t i = warm; i < jobs.size(); ++i)
                      sim.offerJob(jobs[i]);
              }),
              0u);
    sim.advanceTo(sim.nextFreeTime());
    EXPECT_EQ(sim.harvestWindow().completions, jobs.size());
}

// The buckets are allocated by the first sample and never again.
TEST(HotPathAllocations, HistogramAddAllocatesOnlyOnFirstSample)
{
    QuantileHistogram histogram;
    EXPECT_EQ(allocationsOf([&] { histogram.add(0.5); }), 1u);
    EXPECT_EQ(allocationsOf([&] {
                  for (int i = 1; i <= 10000; ++i)
                      histogram.add(1e-3 * i);
              }),
              0u);
    EXPECT_EQ(histogram.count(), 10001u);
}

// Routing through the idle set and the queue-empties calendar: only the
// calendar's heap grows now and then, well under once per 100 jobs.
TEST(HotPathAllocations, FarmTryOfferJobRarelyAllocatesWhenWarm)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const std::size_t servers = 16;
    const std::vector<Job> jobs =
        poissonJobs(0.3 * static_cast<double>(servers), 24000, 7);
    ServerFarm farm(xeon, ServiceScaling::cpuBound(), policy, servers,
                    makeDispatcher("JSQ"));
    const std::size_t warm = 4000;
    for (std::size_t i = 0; i < warm; ++i)
        ASSERT_NE(farm.tryOfferJob(jobs[i]), ServerFarm::noServer);
    const std::uint64_t count = allocationsOf([&] {
        for (std::size_t i = warm; i < jobs.size(); ++i)
            farm.tryOfferJob(jobs[i]);
    });
    EXPECT_LT(count * 100, jobs.size() - warm) << count;
}

} // namespace
} // namespace sleepscale
