/**
 * @file
 * Tests for autonomous per-server farm control: decision equivalence
 * with the farm-wide path in the symmetric homogeneous case (the
 * paper's Section 7 scale-out argument), divergence on heterogeneous
 * big/little farms, per-server accounting, configuration validation,
 * and determinism across decision-pool widths.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

FarmRuntimeConfig
baseConfig(std::size_t size, const std::string &control)
{
    FarmRuntimeConfig config;
    config.farmSize = size;
    config.dispatcher = "random";
    config.control = control;
    config.perServer.epochMinutes = 5;
    return config;
}

FarmRuntimeResult
runFarm(const PlatformModel &platform, const WorkloadSpec &workload,
        const FarmRuntimeConfig &config, const std::vector<Job> &jobs,
        const UtilizationTrace &trace)
{
    const FarmRuntime runtime(platform, workload, config);
    OfflinePredictor predictor(trace.values());
    return runtime.run(jobs, trace, predictor);
}

void
expectSameDecisions(const std::vector<EpochReport> &got,
                    const std::vector<EpochReport> &expect,
                    const std::string &context)
{
    ASSERT_EQ(got.size(), expect.size()) << context;
    for (std::size_t e = 0; e < expect.size(); ++e) {
        EXPECT_EQ(got[e].decided, expect[e].decided)
            << context << " epoch " << e;
        EXPECT_DOUBLE_EQ(got[e].policy.frequency,
                         expect[e].policy.frequency)
            << context << " epoch " << e;
        EXPECT_EQ(got[e].policy.plan.toString(),
                  expect[e].policy.plan.toString())
            << context << " epoch " << e;
    }
}

// The farm-wide mode's thinned decision log is the arrival stream the
// dispatcher routes to server 0, so in the symmetric homogeneous case
// autonomous server 0 sees the identical log at every epoch boundary
// and its (frequency, sleep-state) decisions must match the farm-wide
// path bit-for-bit — the paper's conjecture that SleepScale "runs on
// each server independently", made executable. Checked across the
// Table 5 workloads.
TEST(PerServerControl, Server0MatchesFarmWideOnTable5Workloads)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.25));

    for (const std::string name : {"dns", "mail", "google"}) {
        const WorkloadSpec workload = workloadByName(name);
        TraceDrivenSource source(workload, trace, 91, 4);
        const auto jobs = materialize(source);

        const FarmRuntimeResult wide = runFarm(
            xeon, workload, baseConfig(4, "farm-wide"), jobs, trace);
        const FarmRuntimeResult local = runFarm(
            xeon, workload, baseConfig(4, "per-server"), jobs, trace);

        ASSERT_EQ(local.servers.size(), 4u);
        expectSameDecisions(local.servers[0].epochs, wide.epochs,
                            name + " server 0");
    }
}

// The other servers see different Bernoulli-split realizations of the
// same aggregate process, so their decisions agree with the farm-wide
// ones wherever the candidate argmax is robust to sampling noise. For
// the near-Poisson dns workload at moderate load it is robust across
// the whole run: every server reproduces the farm-wide stream.
TEST(PerServerControl, AllServersMatchFarmWideOnSymmetricDnsFarm)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(30, 0.2));
    TraceDrivenSource source(dns, trace, 91, 4);
    const auto jobs = materialize(source);

    const FarmRuntimeResult wide = runFarm(
        xeon, dns, baseConfig(4, "farm-wide"), jobs, trace);
    const FarmRuntimeResult local = runFarm(
        xeon, dns, baseConfig(4, "per-server"), jobs, trace);

    ASSERT_EQ(local.servers.size(), 4u);
    for (const FarmServerReport &server : local.servers)
        expectSameDecisions(server.epochs, wide.epochs,
                            "dns server " +
                                std::to_string(server.server));
}

TEST(PerServerControl, HeterogeneousBigLittleFarmDiverges)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(30, 0.3));
    TraceDrivenSource source(dns, trace, 17, 4);
    const auto jobs = materialize(source);

    FarmRuntimeConfig config = baseConfig(4, "per-server");
    config.platforms = {"xeon", "xeon", "atom", "atom"};
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    ASSERT_EQ(result.servers.size(), 4u);
    EXPECT_EQ(result.servers[0].platform, PlatformModel::xeon().name());
    EXPECT_EQ(result.servers[3].platform, PlatformModel::atom().name());

    // The big and little halves bind the same candidate space to
    // different power models, so their decision streams must differ
    // somewhere while the two servers of each half agree often.
    bool xeon_vs_atom_differ = false;
    const auto &big = result.servers[0].epochs;
    const auto &little = result.servers[2].epochs;
    ASSERT_EQ(big.size(), little.size());
    for (std::size_t e = 0; e < big.size(); ++e) {
        if (!big[e].decided || !little[e].decided)
            continue;
        if (big[e].policy.toString() != little[e].policy.toString())
            xeon_vs_atom_differ = true;
    }
    EXPECT_TRUE(xeon_vs_atom_differ);
}

TEST(PerServerControl, PerServerStatsSumToFarmTotals)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.25));
    TraceDrivenSource source(dns, trace, 23, 4);
    const auto jobs = materialize(source);

    FarmRuntimeConfig config = baseConfig(4, "per-server");
    config.platforms = {"xeon", "atom", "xeon", "atom"};
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    double energy = 0.0;
    std::uint64_t completions = 0;
    std::uint64_t routed = 0;
    for (const FarmServerReport &server : result.servers) {
        energy += server.total.energy;
        completions += server.total.completions;
        routed += server.jobsRouted;
    }
    EXPECT_NEAR(energy, result.total.energy,
                1e-9 * std::max(1.0, result.total.energy));
    EXPECT_EQ(completions, result.total.completions);
    EXPECT_EQ(completions, jobs.size());
    EXPECT_EQ(routed, jobs.size());
    EXPECT_EQ(result.jobsPerServer.size(), 4u);
    EXPECT_EQ(std::accumulate(result.jobsPerServer.begin(),
                              result.jobsPerServer.end(), 0ull),
              jobs.size());
}

TEST(PerServerControl, DecisionPoolWidthDoesNotChangeDecisions)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.3));
    TraceDrivenSource source(dns, trace, 41, 4);
    const auto jobs = materialize(source);

    FarmRuntimeConfig serial = baseConfig(4, "per-server");
    serial.decisionThreads = 1;
    FarmRuntimeConfig wide = baseConfig(4, "per-server");
    wide.decisionThreads = 4;

    const FarmRuntimeResult one =
        runFarm(xeon, dns, serial, jobs, trace);
    const FarmRuntimeResult four =
        runFarm(xeon, dns, wide, jobs, trace);

    EXPECT_DOUBLE_EQ(one.total.energy, four.total.energy);
    ASSERT_EQ(one.servers.size(), four.servers.size());
    for (std::size_t i = 0; i < one.servers.size(); ++i) {
        const auto &a = one.servers[i].epochs;
        const auto &b = four.servers[i].epochs;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t e = 0; e < a.size(); ++e)
            EXPECT_EQ(a[e].policy.toString(), b[e].policy.toString());
    }
}

TEST(PerServerControl, FixedPolicyMatchesFarmWideExactly)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(15, 0.2));
    TraceDrivenSource source(dns, trace, 53, 3);
    const auto jobs = materialize(source);

    FarmRuntimeConfig wide = baseConfig(3, "farm-wide");
    wide.perServer.fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);
    FarmRuntimeConfig local = baseConfig(3, "per-server");
    local.perServer.fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);

    // With the decision step pinned, the two modes drive identical
    // farms: every accounting total must agree bit-for-bit.
    const FarmRuntimeResult a = runFarm(xeon, dns, wide, jobs, trace);
    const FarmRuntimeResult b = runFarm(xeon, dns, local, jobs, trace);
    EXPECT_DOUBLE_EQ(a.total.energy, b.total.energy);
    EXPECT_DOUBLE_EQ(a.meanResponse(), b.meanResponse());
    EXPECT_EQ(a.total.completions, b.total.completions);
    EXPECT_EQ(a.jobsPerServer, b.jobsPerServer);
}

TEST(PerServerControl, ManagersPersistAcrossRuns)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(15, 0.3));
    TraceDrivenSource source(dns, trace, 61, 2);
    const auto jobs = materialize(source);

    const FarmRuntime runtime(xeon, dns,
                              baseConfig(2, "per-server"));
    // One manager (and thus one eval-engine cache) per server, stable
    // across runs.
    const PolicyManager *first = &runtime.serverManager(0);
    const PolicyManager *second = &runtime.serverManager(1);
    EXPECT_NE(first, second);

    OfflinePredictor p1(trace.values()), p2(trace.values());
    const FarmRuntimeResult a = runtime.run(jobs, trace, p1);
    const FarmRuntimeResult b = runtime.run(jobs, trace, p2);
    EXPECT_EQ(first, &runtime.serverManager(0));
    EXPECT_DOUBLE_EQ(a.total.energy, b.total.energy);
}

// Decision state (controller filters, load estimates) resets at the
// top of every run(), so a runtime's second run repeats its first bit
// for bit; only the eval engines' plan caches carry over. Checked for
// the two stateful per-server deciders.
TEST(PerServerControl, SecondRunRepeatsTheFirst)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec mail = mailWorkload();
    const UtilizationTrace trace =
        synthEmailStoreTrace(1, 20140614).dailyWindow(2, 6);
    TraceDrivenSource source(mail, trace, 7, 4);
    const auto jobs = materialize(source);

    for (const auto &[strategy, control] :
         {std::pair<std::string, std::string>{"poet", "per-server"},
          {"SS", "distributed"}}) {
        FarmRuntimeConfig config;
        config.farmSize = 4;
        config.dispatcher = "JSQ";
        config.control = control;
        config.perServer.overProvision = 0.35;
        config.perServer =
            strategyConfigByName(strategy, config.perServer);
        const FarmRuntime runtime(xeon, mail, config);

        LmsCusumPredictor p1(10), p2(10);
        const FarmRuntimeResult a = runtime.run(jobs, trace, p1);
        const FarmRuntimeResult b = runtime.run(jobs, trace, p2);
        EXPECT_EQ(a.total.energy, b.total.energy) << control;
        EXPECT_EQ(a.total.completions, b.total.completions) << control;
        for (std::size_t i = 0; i < a.servers.size(); ++i)
            expectSameDecisions(b.servers[i].epochs, a.servers[i].epochs,
                                control + " server " + std::to_string(i));
    }
}

TEST(PerServerControl, IdleServerIsNotVacuouslyWithinBudget)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(15, 0.1));
    TraceDrivenSource source(dns, trace, 71, 3);
    const auto jobs = materialize(source);

    // A packing dispatcher with an unreachable spill threshold funnels
    // every job to server 0; the starved tail must not claim budget
    // compliance it has no completions to back.
    FarmRuntimeConfig config = baseConfig(3, "per-server");
    config.dispatcher = "packing";
    config.packingSpillBacklog = 1e9;
    const FarmRuntimeResult result =
        runFarm(xeon, dns, config, jobs, trace);

    ASSERT_EQ(result.servers.size(), 3u);
    EXPECT_GT(result.servers[0].jobsRouted, 0u);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(result.servers[i].total.completions, 0u);
        EXPECT_FALSE(result.servers[i].withinBudget);
    }
}

TEST(PerServerControl, ValidationGuards)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();

    FarmRuntimeConfig bad_mode = baseConfig(2, "per-host");
    EXPECT_THROW(FarmRuntime(xeon, dns, bad_mode), ConfigError);

    FarmRuntimeConfig bad_count = baseConfig(2, "per-server");
    bad_count.platforms = {"xeon"};
    EXPECT_THROW(FarmRuntime(xeon, dns, bad_count), ConfigError);

    FarmRuntimeConfig bad_name = baseConfig(2, "per-server");
    bad_name.platforms = {"xeon", "epyc"};
    EXPECT_THROW(FarmRuntime(xeon, dns, bad_name), ConfigError);

    // A heterogeneous mix cannot bind one farm-wide decision.
    FarmRuntimeConfig mixed_wide = baseConfig(2, "farm-wide");
    mixed_wide.platforms = {"xeon", "atom"};
    EXPECT_THROW(FarmRuntime(xeon, dns, mixed_wide), ConfigError);

    // Homogeneous platform lists are fine under either mode, and the
    // listed platform replaces the constructor's.
    FarmRuntimeConfig homogeneous = baseConfig(2, "farm-wide");
    homogeneous.platforms = {"atom", "atom"};
    const FarmRuntime runtime(xeon, dns, homogeneous);
    const UtilizationTrace trace("flat", std::vector<double>(5, 0.2));
    TraceDrivenSource source(dns, trace, 7, 2);
    OfflinePredictor predictor(trace.values());
    const FarmRuntimeResult result = runtime.run(source, trace, predictor);
    ASSERT_EQ(result.servers.size(), 2u);
    EXPECT_EQ(result.servers[1].platform, PlatformModel::atom().name());
    EXPECT_THROW(runtime.serverManager(0), ConfigError);
}

} // namespace
} // namespace sleepscale
