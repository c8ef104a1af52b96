/**
 * @file
 * Tests for workload specs (Table 5), scaling laws, and job streams.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hh"
#include "util/online_stats.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

// -------------------------------------------------------- ServiceScaling

TEST(ServiceScaling, CpuBoundIsInverseLinear)
{
    const ServiceScaling law = ServiceScaling::cpuBound();
    EXPECT_DOUBLE_EQ(law.factor(1.0), 1.0);
    EXPECT_DOUBLE_EQ(law.factor(0.5), 2.0);
    EXPECT_DOUBLE_EQ(law.factor(0.25), 4.0);
}

TEST(ServiceScaling, MemoryBoundIgnoresFrequency)
{
    const ServiceScaling law = ServiceScaling::memoryBound();
    EXPECT_DOUBLE_EQ(law.factor(1.0), 1.0);
    EXPECT_DOUBLE_EQ(law.factor(0.2), 1.0);
}

TEST(ServiceScaling, SubLinearExponents)
{
    EXPECT_DOUBLE_EQ(ServiceScaling::mixed().factor(0.25), 2.0);
    EXPECT_NEAR(ServiceScaling::mostlyMemory().factor(0.5),
                std::pow(0.5, -0.2), 1e-12);
}

TEST(ServiceScaling, DomainValidated)
{
    EXPECT_THROW(ServiceScaling::cpuBound().factor(0.0), ConfigError);
    EXPECT_THROW(ServiceScaling::cpuBound().factor(1.1), ConfigError);
    EXPECT_THROW(ServiceScaling::cpuBound().factor(
                     std::numeric_limits<double>::quiet_NaN()),
                 ConfigError);
    EXPECT_THROW((ServiceScaling{1.5}.factor(0.5)), ConfigError);
}

// ------------------------------------------------- WorkloadSpec (Table 5)

TEST(WorkloadSpec, Table5Values)
{
    const WorkloadSpec dns = dnsWorkload();
    EXPECT_DOUBLE_EQ(dns.interArrivalMean, 1.1);
    EXPECT_DOUBLE_EQ(dns.interArrivalCv, 1.1);
    EXPECT_DOUBLE_EQ(dns.serviceMean, 0.194);
    EXPECT_DOUBLE_EQ(dns.serviceCv, 1.0);

    const WorkloadSpec mail = mailWorkload();
    EXPECT_DOUBLE_EQ(mail.interArrivalMean, 0.206);
    EXPECT_DOUBLE_EQ(mail.serviceCv, 3.6);

    const WorkloadSpec google = googleWorkload();
    EXPECT_DOUBLE_EQ(google.interArrivalMean, 319e-6);
    EXPECT_DOUBLE_EQ(google.serviceMean, 4.2e-3);
}

TEST(WorkloadSpec, InterArrivalMeanAtUtilization)
{
    const WorkloadSpec dns = dnsWorkload();
    EXPECT_NEAR(dns.interArrivalMeanAt(0.1), 1.94, 1e-12);
    EXPECT_THROW(dns.interArrivalMeanAt(0.0), ConfigError);
    EXPECT_THROW(dns.interArrivalMeanAt(1.0), ConfigError);
}

TEST(WorkloadSpec, DistributionsMatchSpec)
{
    const WorkloadSpec mail = mailWorkload();
    const auto service = mail.makeService();
    EXPECT_DOUBLE_EQ(service->mean(), 0.092);
    EXPECT_NEAR(service->cv(), 3.6, 1e-9);

    // The arrival side as the job sources fit it.
    const auto arrivals =
        fitDistribution(mail.interArrivalMeanAt(0.3), mail.interArrivalCv);
    EXPECT_NEAR(arrivals->mean(), 0.092 / 0.3, 1e-12);
    EXPECT_NEAR(arrivals->cv(), 1.9, 1e-9);
}

TEST(WorkloadSpec, IdealizedForcesPoissonExponential)
{
    const WorkloadSpec ideal = mailWorkload().idealized();
    EXPECT_DOUBLE_EQ(ideal.interArrivalCv, 1.0);
    EXPECT_DOUBLE_EQ(ideal.serviceCv, 1.0);
    EXPECT_DOUBLE_EQ(ideal.serviceMean, 0.092);
    EXPECT_EQ(ideal.makeService()->name(), "exponential");
}

// ------------------------------------------------------------ job streams

TEST(JobStream, GeneratesRequestedCountInOrder)
{
    StationarySource source(std::make_unique<ExponentialDist>(1.0),
                            std::make_unique<ExponentialDist>(0.2), 1);
    const auto jobs = materialize(source, 500);
    ASSERT_EQ(jobs.size(), 500u);
    for (std::size_t i = 1; i < jobs.size(); ++i)
        ASSERT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    EXPECT_GT(jobs.front().arrival, 0.0);
}

TEST(JobStream, WorkloadJobsHitTargetUtilization)
{
    StationarySource source(dnsWorkload(), 0.3, 3);
    const auto jobs = materialize(source, 20000);
    double demand = 0.0;
    for (const Job &job : jobs)
        demand += job.size;
    EXPECT_NEAR(demand / jobs.back().arrival, 0.3, 0.02);
}

TEST(JobStream, TraceDrivenFollowsUtilization)
{
    // Two-level trace: 30 minutes at 0.1 then 30 at 0.5.
    std::vector<double> levels(60, 0.1);
    for (std::size_t i = 30; i < 60; ++i)
        levels[i] = 0.5;
    const UtilizationTrace trace("steps", levels);

    TraceDrivenSource source(dnsWorkload(), trace, 4);
    const auto jobs = materialize(source);

    double low_demand = 0.0, high_demand = 0.0;
    for (const Job &job : jobs) {
        (job.arrival < 1800.0 ? low_demand : high_demand) += job.size;
    }
    EXPECT_NEAR(low_demand / 1800.0, 0.1, 0.03);
    EXPECT_NEAR(high_demand / 1800.0, 0.5, 0.06);
}

TEST(JobStream, TraceDrivenCoversWholeTrace)
{
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.2));
    TraceDrivenSource source(dnsWorkload(), trace, 5);
    const auto jobs = materialize(source);
    ASSERT_FALSE(jobs.empty());
    EXPECT_LT(jobs.back().arrival, trace.duration());
    EXPECT_GT(jobs.back().arrival, trace.duration() * 0.8);
}

TEST(JobStream, ServiceSizesAreStationaryAcrossTrace)
{
    // The paper: only inter-arrivals are modulated; the service
    // distribution must not depend on the utilization level.
    std::vector<double> levels(40, 0.05);
    for (std::size_t i = 20; i < 40; ++i)
        levels[i] = 0.6;
    const UtilizationTrace trace("steps", levels);
    TraceDrivenSource source(dnsWorkload(), trace, 6);
    const auto jobs = materialize(source);

    OnlineStats low, high;
    for (const Job &job : jobs)
        (job.arrival < 1200.0 ? low : high).add(job.size);
    ASSERT_GT(low.count(), 50u);
    ASSERT_GT(high.count(), 500u);
    EXPECT_NEAR(low.mean() / high.mean(), 1.0, 0.2);
}

} // namespace
} // namespace sleepscale
