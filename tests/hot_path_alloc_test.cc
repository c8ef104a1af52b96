/**
 * @file
 * Heap allocations on the per-job hot paths. A passing fatalIf() check
 * must cost no allocation, and the structures a job touches stop
 * growing once warm, so after warm-up these paths allocate nothing per
 * job: a log prepared for the candidate search, an arrival at a
 * ServerSim or at a ServerFarm, a response sample in a histogram.
 *
 * The file replaces the global operator new to count calls, which is
 * why it is a test binary of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "farm/dispatcher.hh"
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
    QuantileHistogram histogram(1e-7, 1e5, 400);
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
