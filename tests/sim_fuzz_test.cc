/**
 * @file
 * Randomized invariant (fuzz) tests for the simulation core.
 *
 * Each case builds a random scenario — random job stream, random sleep
 * plan, random mid-run policy switches, random window harvests — and
 * checks the invariants that must hold for *any* scenario:
 *
 *   1. job conservation: everything offered eventually completes;
 *   2. time conservation: busy time plus idle residencies tile the run;
 *   3. energy bounds: average power lies between the deepest sleep
 *      power and the full-frequency active power;
 *   4. window additivity: harvested windows sum to the one-shot totals;
 *   5. determinism: identical seeds give identical accounting.
 *
 * The job-source half is a seeded differential fuzzer: random
 * compositions of streaming sources (until() over a merge() of one to
 * three stationary/bursty/trace-driven primitives) are checked for
 * reset() determinism, clone() fidelity after partial consumption, and
 * streaming == materialized equality through the runtime engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include <string>

#include "analytic/mm1_sleep.hh"
#include "analytic/offline_opt.hh"
#include "control/controller_manager.hh"
#include "core/predictor.hh"
#include "core/runtime.hh"
#include "farm/farm_runtime.hh"
#include "fault/fault_source.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

/** Random single- or multi-stage plan drawn from the five states. */
SleepPlan
randomPlan(Rng &rng)
{
    const std::size_t first = rng.uniformInt(numLowPowerStates);
    std::vector<SleepStage> stages;
    stages.push_back({allLowPowerStates[first], 0.0});
    double tau = 0.0;
    for (std::size_t depth = first + 1; depth < numLowPowerStates;
         ++depth) {
        if (rng.uniform() < 0.4) {
            tau += rng.uniform(0.01, 2.0);
            stages.push_back({allLowPowerStates[depth], tau});
        }
    }
    return SleepPlan(stages);
}

Policy
randomPolicy(Rng &rng)
{
    return Policy{rng.uniform(0.15, 1.0), randomPlan(rng)};
}

struct FuzzTotals
{
    SimStats merged;
    std::uint64_t offered = 0;
};

/**
 * Run a random scenario: jobs at a random load, random policy switches
 * at random times, windows harvested at every switch.
 */
FuzzTotals
runScenario(std::uint64_t seed, const PlatformModel &platform)
{
    Rng rng(seed);
    const double service_mean = rng.uniform(0.001, 0.3);
    const double rho = rng.uniform(0.05, 0.6);
    StationarySource source(
        std::make_unique<ExponentialDist>(service_mean / rho),
        std::make_unique<ExponentialDist>(service_mean), rng.next());
    const auto jobs = materialize(source, 4000);

    ServerSim sim(platform, ServiceScaling::cpuBound(),
                  randomPolicy(rng));

    FuzzTotals totals;
    totals.offered = jobs.size();
    std::size_t next = 0;
    double clock = 0.0;
    while (next < jobs.size()) {
        // Advance by a random stride, harvesting and maybe switching.
        clock += rng.uniform(0.5, 30.0 * service_mean / rho);
        while (next < jobs.size() && jobs[next].arrival <= clock) {
            sim.offerJob(jobs[next]);
            ++next;
        }
        sim.advanceTo(clock);
        totals.merged.merge(sim.harvestWindow());
        if (rng.uniform() < 0.3)
            sim.setPolicy(randomPolicy(rng), clock);
    }
    const double end = std::max(clock, sim.nextFreeTime());
    sim.advanceTo(end);
    totals.merged.merge(sim.harvestWindow());
    return totals;
}

class SimFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
};

TEST_P(SimFuzz, InvariantsHoldUnderRandomScenarios)
{
    const FuzzTotals totals = runScenario(GetParam(), xeon);
    const SimStats &stats = totals.merged;

    // 1. Job conservation.
    EXPECT_EQ(stats.arrivals, totals.offered);
    EXPECT_EQ(stats.completions, totals.offered);

    // 2. Time conservation: busy + idle residencies tile the window.
    const double accounted = stats.busyTime + stats.idleTime();
    EXPECT_NEAR(accounted / stats.elapsed(), 1.0, 1e-9);

    // 3. Energy bounds.
    const double floor_power = xeon.lowPower(LowPowerState::C6S3, 1.0);
    const double ceil_power = xeon.activePower(1.0);
    EXPECT_GE(stats.avgPower(), floor_power - 1e-9);
    EXPECT_LE(stats.avgPower(), ceil_power + 1e-9);

    // Responses are positive and the histogram agrees with the
    // streaming moments on the count.
    EXPECT_EQ(stats.response.count(), stats.completions);
    EXPECT_EQ(stats.responseHistogram.count(), stats.completions);
    EXPECT_GT(stats.response.min(), 0.0);
}

TEST_P(SimFuzz, DeterministicGivenSeed)
{
    const FuzzTotals a = runScenario(GetParam(), xeon);
    const FuzzTotals b = runScenario(GetParam(), xeon);
    EXPECT_DOUBLE_EQ(a.merged.energy, b.merged.energy);
    EXPECT_DOUBLE_EQ(a.merged.busyTime, b.merged.busyTime);
    EXPECT_DOUBLE_EQ(a.merged.response.mean(), b.merged.response.mean());
    EXPECT_EQ(a.merged.completions, b.merged.completions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// -------------------------------------------- windows vs one-shot totals

TEST(SimFuzzWindows, WindowedRunMatchesOneShotRun)
{
    const PlatformModel xeon = PlatformModel::xeon();
    StationarySource source(std::make_unique<ExponentialDist>(0.4),
                            std::make_unique<ExponentialDist>(0.194), 404);
    const auto jobs = materialize(source, 20000);
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};

    // One shot.
    const PolicyEvaluation one_shot =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    // Windowed at arbitrary boundaries.
    ServerSim sim(xeon, ServiceScaling::cpuBound(), policy);
    SimStats merged;
    Rng boundary_rng(405);
    std::size_t next = 0;
    double clock = 0.0;
    const double end_time = one_shot.stats.windowEnd;
    while (clock < end_time) {
        clock = std::min(end_time, clock + boundary_rng.uniform(1.0,
                                                                60.0));
        while (next < jobs.size() && jobs[next].arrival <= clock) {
            sim.offerJob(jobs[next]);
            ++next;
        }
        sim.advanceTo(clock);
        merged.merge(sim.harvestWindow());
    }
    sim.advanceTo(sim.nextFreeTime());
    merged.merge(sim.harvestWindow());

    EXPECT_NEAR(merged.energy, one_shot.stats.energy, 1e-6);
    EXPECT_NEAR(merged.busyTime, one_shot.stats.busyTime, 1e-9);
    EXPECT_EQ(merged.completions, one_shot.stats.completions);
    EXPECT_NEAR(merged.response.mean(), one_shot.meanResponse(), 1e-12);
}

// ------------------------------------- random plans vs the closed forms

class PlanFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlanFuzz, AnalyticMatchesSimulationForRandomPlans)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    Rng rng(GetParam() * 7919);

    const double service_mean = rng.uniform(0.01, 0.3);
    const double mu = 1.0 / service_mean;
    const double rho = rng.uniform(0.05, 0.5);
    const double f = rng.uniform(rho + 0.1, 1.0);
    const Policy policy{f, randomPlan(rng)};

    StationarySource source(
        std::make_unique<ExponentialDist>(service_mean / rho),
        std::make_unique<ExponentialDist>(service_mean), rng.next());
    const auto jobs = materialize(source, 250000);
    const PolicyEvaluation eval =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);

    EXPECT_NEAR(eval.avgPower() /
                    model.meanPower(policy, rho * mu, mu),
                1.0, 0.03)
        << policy.toString() << " rho=" << rho;
    EXPECT_NEAR(eval.meanResponse() /
                    model.meanResponse(policy, rho * mu, mu),
                1.0, 0.10)
        << policy.toString() << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// --------------------------- differential job-source composition fuzz

/** A small random utilization trace for trace-driven primitives. */
UtilizationTrace
randomFuzzTrace(Rng &rng)
{
    const std::size_t minutes = 10 + rng.uniformInt(30);
    std::vector<double> levels(minutes);
    for (double &level : levels)
        level = rng.uniform(0.05, 0.5);
    return UtilizationTrace("fuzz", levels);
}

/** One random primitive source: stationary, bursty, or trace-driven. */
std::unique_ptr<JobSource>
randomPrimitiveSource(Rng &rng)
{
    const WorkloadSpec dns = dnsWorkload();
    const std::uint64_t seed = rng.next();
    switch (rng.uniformInt(3)) {
      case 0:
        return std::make_unique<StationarySource>(
            dns, rng.uniform(0.05, 0.4), seed);
      case 1:
        return std::make_unique<BurstySource>(
            dns, rng.uniform(0.05, 0.3), rng.uniform(1.5, 6.0),
            rng.uniform(20.0, 200.0), rng.uniform(200.0, 2000.0), seed);
      default:
        return std::make_unique<TraceDrivenSource>(
            dns, randomFuzzTrace(rng), seed);
    }
}

/**
 * A random composition: one to three primitives merged, bounded by a
 * final until() so infinite primitives terminate.
 */
std::unique_ptr<JobSource>
randomComposition(Rng &rng)
{
    std::vector<std::unique_ptr<JobSource>> parts(1 + rng.uniformInt(3));
    for (auto &part : parts)
        part = randomPrimitiveSource(rng);
    return until(merge(std::move(parts)), rng.uniform(600.0, 1800.0));
}

void
expectSameJobs(const std::vector<Job> &a, const std::vector<Job> &b,
               const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival) << what << " job " << i;
        EXPECT_EQ(a[i].size, b[i].size) << what << " job " << i;
        EXPECT_EQ(a[i].classId, b[i].classId) << what << " job " << i;
    }
}

class SourceFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SourceFuzz, ResetIsDeterministic)
{
    Rng rng(GetParam() * 2654435761ULL);
    const auto source = randomComposition(rng);
    const std::uint64_t seed = GetParam() + 17;

    source->reset(seed);
    const auto first = materialize(*source);
    ASSERT_FALSE(first.empty());
    source->reset(seed);
    const auto second = materialize(*source);
    expectSameJobs(first, second, "reset");

    // Arrival times are non-decreasing — the core source contract.
    for (std::size_t i = 1; i < first.size(); ++i)
        EXPECT_GE(first[i].arrival, first[i - 1].arrival) << i;
}

TEST_P(SourceFuzz, CloneContinuesMidStream)
{
    Rng rng(GetParam() * 2654435761ULL);
    const auto source = randomComposition(rng);
    source->reset(GetParam());

    // Consume a random prefix, clone, and require both continuations
    // to be identical job for job.
    Rng consume_rng(GetParam() ^ 0xABCDEF);
    const std::size_t consumed = consume_rng.uniformInt(400);
    Job job;
    for (std::size_t i = 0; i < consumed; ++i) {
        if (!source->next(job))
            break;
    }
    const auto clone = source->clone();
    const auto rest_original = materialize(*source);
    const auto rest_clone = materialize(*clone);
    expectSameJobs(rest_original, rest_clone, "clone");
}

TEST_P(SourceFuzz, StreamingMatchesMaterializedThroughEngine)
{
    Rng rng(GetParam() * 2654435761ULL);
    const auto streaming = randomComposition(rng);
    streaming->reset(GetParam());
    const auto jobs = materialize(*streaming->clone());

    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace(
        "flat", std::vector<double>(20, 0.2));

    RuntimeConfig config;
    config.epochMinutes = 5;
    config.fixedPolicy =
        Policy{0.7, SleepPlan::immediate(LowPowerState::C6S0Idle)};
    const SleepScaleRuntime runtime(xeon, dns, config);

    const auto stream_predictor =
        makePredictor("NP", 10, trace.values());
    const RuntimeResult from_stream =
        runtime.run(*streaming, trace, *stream_predictor);
    const auto vector_predictor =
        makePredictor("NP", 10, trace.values());
    const RuntimeResult from_vector =
        runtime.run(jobs, trace, *vector_predictor);

    EXPECT_EQ(from_stream.total.arrivals, from_vector.total.arrivals);
    EXPECT_EQ(from_stream.total.completions,
              from_vector.total.completions);
    EXPECT_DOUBLE_EQ(from_stream.total.energy, from_vector.total.energy);
    EXPECT_DOUBLE_EQ(from_stream.total.busyTime,
                     from_vector.total.busyTime);
    EXPECT_DOUBLE_EQ(from_stream.total.response.mean(),
                     from_vector.total.response.mean());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SourceFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

// -------------------------------------- fault-schedule fuzz (FaultFuzz)

// The availability-plane half of the fuzzer (docs/FAULTS.md). These
// cases are registered as their own fast ctest entry ("fault_fuzz",
// labels integration+fault) so the ASan and TSan jobs run them without
// paying for the statistical suites above.

/** A random fault-source configuration for a random family. */
FaultSourceConfig
randomFaultConfig(Rng &rng, std::size_t farm_size, std::string *family)
{
    FaultSourceConfig config;
    config.farmSize = farm_size;
    config.mtbf = rng.uniform(300.0, 1200.0);
    config.mttr = rng.uniform(30.0, 180.0);
    config.seed = rng.next();
    switch (rng.uniformInt(3)) {
      case 0:
        *family = "mtbf";
        break;
      case 1:
        *family = "correlated";
        break;
      default: {
        *family = "scripted";
        double clock = 0.0;
        std::vector<char> down(farm_size, 0);
        const std::size_t events = 2 + rng.uniformInt(20);
        for (std::size_t i = 0; i < events; ++i) {
            clock += rng.uniform(0.0, 300.0);
            const auto server = rng.uniformInt(farm_size);
            config.script.push_back(
                {clock, server, down[server] == 0});
            down[server] = down[server] == 0 ? 1 : 0;
        }
        break;
      }
    }
    return config;
}

bool
sameFaultEvents(const std::vector<FaultEvent> &a,
                const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].server != b[i].server ||
            a[i].down != b[i].down)
            return false;
    }
    return true;
}

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FaultFuzz, EqualConfigsAreDeterministic)
{
    Rng rng(GetParam() * 2654435761ULL + 1);
    for (int round = 0; round < 8; ++round) {
        const std::size_t farm_size = 1 + rng.uniformInt(5);
        std::string family;
        const FaultSourceConfig config =
            randomFaultConfig(rng, farm_size, &family);

        const auto source = makeFaultSource(family, config);
        const auto events = materializeFaults(*source, 20000.0, 2000);
        // Two sources built from one configuration reproduce the
        // schedule bit-for-bit.
        const auto twin = makeFaultSource(family, config);
        EXPECT_TRUE(sameFaultEvents(
            events, materializeFaults(*twin, 20000.0, 2000)))
            << family << " seed " << config.seed;

        // Non-decreasing times, in-range servers — for any schedule.
        double last = 0.0;
        for (const FaultEvent &event : events) {
            EXPECT_GE(event.time, last) << family;
            EXPECT_LT(event.server, farm_size) << family;
            last = event.time;
        }
    }
}

/**
 * One short fault-injected farm run over a Table 5 workload. The
 * scenario shape (workload, trace, farm, control) is drawn from `rng`;
 * the fault knobs are drawn from `knob_seed` separately so tests can
 * vary the knobs while holding the scenario fixed.
 */
FarmRuntimeResult
runFuzzFarm(Rng &rng, const std::string &faults, std::uint64_t seed,
            std::uint64_t knob_seed)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec workload = rng.uniformInt(2) == 0
                                      ? dnsWorkload()
                                      : mailWorkload();
    const UtilizationTrace trace(
        "flat",
        std::vector<double>(15 + rng.uniformInt(10),
                            rng.uniform(0.1, 0.35)));

    FarmRuntimeConfig config;
    config.farmSize = 2 + rng.uniformInt(2);
    config.control =
        rng.uniformInt(2) == 0 ? "farm-wide" : "per-server";
    config.dispatchSeed = mixSeed(seed);
    config.perServer.epochMinutes = 5;
    config.faults = faults;
    config.faultSeed = mixSeed(mixSeed(seed));

    // Knobs are always populated — an inactive ("none") fault layer
    // must ignore every one of them.
    Rng knobs(knob_seed);
    config.mtbf = knobs.uniform(300.0, 900.0);
    config.mttr = knobs.uniform(30.0, 150.0);
    config.retryBackoff = knobs.uniform(0.25, 4.0);
    config.dropTimeout = knobs.uniform(60.0, 300.0);
    config.recoverySeconds = knobs.uniform(0.0, 30.0);

    FarmRuntime runtime(xeon, workload, config);
    TraceDrivenSource source(workload, trace, seed, config.farmSize);
    const auto predictor = makePredictor("NP", 10, trace.values());
    return runtime.run(source, trace, *predictor);
}

TEST_P(FaultFuzz, ConservationHoldsAtEveryEpochClose)
{
    Rng rng(GetParam() * 2654435761ULL + 2);
    for (const char *faults : {"mtbf", "correlated"}) {
        Rng scenario(rng.next());
        const FarmRuntimeResult result =
            runFuzzFarm(scenario, faults, GetParam() + 31,
                        GetParam() + 57);

        // offered == completed + dropped + in-flight at every epoch
        // close, with cumulative counters non-decreasing throughout.
        ASSERT_FALSE(result.epochFaults.empty()) << faults;
        FarmFaultStats previous;
        for (const FarmFaultStats &snap : result.epochFaults) {
            EXPECT_EQ(snap.offered,
                      snap.completed + snap.dropped + snap.inFlight)
                << faults << " at " << snap.elapsedSeconds;
            EXPECT_LE(snap.admitted, snap.offered) << faults;
            EXPECT_LE(snap.completed, snap.admitted) << faults;
            EXPECT_GE(snap.offered, previous.offered) << faults;
            EXPECT_GE(snap.completed, previous.completed) << faults;
            EXPECT_GE(snap.dropped, previous.dropped) << faults;
            EXPECT_GE(snap.retries, previous.retries) << faults;
            EXPECT_GE(snap.downSeconds, previous.downSeconds) << faults;
            EXPECT_GE(snap.elapsedSeconds, previous.elapsedSeconds)
                << faults;
            const double availability = snap.availability(
                result.jobsPerServer.size());
            EXPECT_GE(availability, 0.0) << faults;
            EXPECT_LE(availability, 1.0) << faults;
            // Degraded time is charged by the span actually run.
            EXPECT_LE(snap.degradedSeconds,
                      snap.elapsedSeconds *
                          static_cast<double>(result.jobsPerServer.size()))
                << faults << " at " << snap.elapsedSeconds;
            previous = snap;
        }

        // The run drains: every offered job completed or dropped.
        EXPECT_EQ(result.faults.inFlight, 0u) << faults;
        EXPECT_EQ(result.faults.offered,
                  result.faults.completed + result.faults.dropped)
            << faults;
        EXPECT_EQ(result.faults.completed, result.total.completions)
            << faults;
    }
}

TEST_P(FaultFuzz, NoFaultRunsAreCleanDeterministicAndKnobBlind)
{
    // faults == "none" must reproduce the fault-free runtime: the
    // availability plane stays pristine, two runs of the same scenario
    // agree bit-for-bit even with completely different fault knobs
    // (rates, backoff, deadlines) — an inactive layer must ignore them
    // all. The cross-check against the pre-fault-layer runtime itself
    // is pinned by tests/farm_fault_test.cc.
    Rng rng(GetParam() * 2654435761ULL + 3);
    const std::uint64_t scenario_seed = rng.next();
    Rng first(scenario_seed);
    const FarmRuntimeResult a =
        runFuzzFarm(first, "none", GetParam() + 7, 1);
    Rng second(scenario_seed);
    const FarmRuntimeResult b =
        runFuzzFarm(second, "none", GetParam() + 7, 999);

    EXPECT_EQ(a.total.completions, b.total.completions);
    EXPECT_EQ(a.total.arrivals, b.total.arrivals);
    EXPECT_EQ(a.total.energy, b.total.energy);
    EXPECT_EQ(a.total.busyTime, b.total.busyTime);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].policy.frequency,
                  b.epochs[i].policy.frequency) << i;
        EXPECT_EQ(a.epochs[i].degraded, b.epochs[i].degraded) << i;
    }

    const FarmFaultStats &clean = a.faults;
    EXPECT_EQ(clean.offered, clean.completed);
    EXPECT_EQ(clean.dropped, 0u);
    EXPECT_EQ(clean.retries, 0u);
    EXPECT_EQ(clean.inFlight, 0u);
    EXPECT_EQ(clean.degradedEpochs, 0u);
    EXPECT_DOUBLE_EQ(clean.downSeconds, 0.0);
    EXPECT_DOUBLE_EQ(clean.degradedSeconds, 0.0);
    EXPECT_DOUBLE_EQ(clean.availability(a.jobsPerServer.size()), 1.0);
    EXPECT_DOUBLE_EQ(clean.goodput(), 1.0);
    for (const EpochReport &epoch : a.epochs)
        EXPECT_FALSE(epoch.degraded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// -------------------------------------------------- controller fuzz
//
// State-lifetime determinism of the O(1) feedback controller
// (src/control, docs/CONTROL.md): a copy taken mid-run must continue
// bit-identically with the original, and reset() must reproduce a
// fresh instance — the contracts per-server farm control and the
// workflow resume path lean on. Registered as its own fast ctest
// entry `control_fuzz` (labels integration+control).

/** A random but valid epoch observation stream element. */
EpochObservation
randomObservation(Rng &rng, const WorkloadSpec &workload)
{
    EpochObservation observation;
    observation.hasMeasurement = rng.uniform(0.0, 1.0) > 0.15;
    observation.predictedUtilization = rng.uniform(0.0, 1.0);
    observation.measuredUtilization = rng.uniform(0.0, 0.95);
    observation.measuredQos =
        rng.uniform(0.1, 10.0) * workload.serviceMean;
    observation.meanJobSize =
        rng.uniform(0.2, 5.0) * workload.serviceMean;
    observation.applied =
        Policy{rng.uniform(0.3, 1.0),
               SleepPlan::immediate(LowPowerState::C6S0Idle)};
    return observation;
}

bool
samePolicyDecision(const PolicyDecision &a, const PolicyDecision &b)
{
    return a.policy.frequency == b.policy.frequency &&
           a.policy.plan.deepest() == b.policy.plan.deepest() &&
           a.feasible == b.feasible &&
           a.predictedPower == b.predictedPower &&
           a.predictedMetric == b.predictedMetric;
}

class ControllerFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ControllerFuzz, ResetAndCloneAreDeterministic)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const QosConstraint qos =
        QosConstraint::fromBaselineMean(0.8, dns.serviceMean);
    const Policy initial{
        1.0, SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};

    Rng rng(GetParam() * 2654435761ULL + 17);
    for (int round = 0; round < 6; ++round) {
        ControllerConfig config;
        config.processNoise = rng.uniform(1e-6, 1e-2);
        config.measurementNoise = rng.uniform(1e-4, 1e-1);
        config.pole = rng.uniform(0.0, 0.9);
        config.periodEpochs = 1 + rng.uniformInt(3);

        ControllerManager manager(xeon, dns.scaling,
                                  PolicySpace::standard(), qos, config,
                                  initial);

        // Drive to a random mid-run point, replaying the prefix so a
        // reset controller can be caught up later.
        const std::size_t prefix = 1 + rng.uniformInt(30);
        std::vector<EpochObservation> stream;
        for (std::size_t i = 0; i < prefix; ++i) {
            stream.push_back(randomObservation(rng, dns));
            manager.decide(stream.back(), {});
        }

        // A clone must continue bit-identically...
        ControllerManager clone = manager;
        // ...and reset + prefix replay must reproduce the original.
        ControllerManager replayed = manager;
        replayed.reset();
        for (const EpochObservation &observation : stream)
            replayed.decide(observation, {});

        for (int i = 0; i < 20; ++i) {
            const EpochObservation observation =
                randomObservation(rng, dns);
            const PolicyDecision a = manager.decide(observation, {});
            const PolicyDecision b = clone.decide(observation, {});
            const PolicyDecision c = replayed.decide(observation, {});
            EXPECT_TRUE(samePolicyDecision(a, b));
            EXPECT_TRUE(samePolicyDecision(a, c));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------- offline-opt fuzz
//
// Differential fuzz of the offline-optimal oracle (docs/OFFLINE_OPT.md):
// random small job logs through the exact Pareto solver vs the FPTAS
// must respect the certified bracket, and both solvers must be
// bit-deterministic across reruns — the contract the golden regret
// snapshots and replication CIs lean on. Registered as its own fast
// ctest entry `offline_opt_fuzz` (labels integration+analytic).

class OfflineOptFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OfflineOptFuzz, ExactVsFptasBracketAndDeterminism)
{
    const PlatformModel xeon = PlatformModel::xeon();
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 3);
    for (int round = 0; round < 12; ++round) {
        // Random grid, epsilon, scaling law, and log shape each round.
        OfflineOptOptions options;
        options.epsilon = rng.uniform(0.02, 0.3);
        const double lo = rng.uniform(0.3, 0.6);
        options.frequencies = PolicySpace::frequencyGrid(
            lo, 1.0, rng.uniform(0.1, 0.3));
        const ServiceScaling scaling{rng.uniform(0.0, 1.0)};
        const OfflineOptimal oracle(xeon, scaling, options);

        std::vector<Job> jobs;
        double t = rng.uniform(0.0, 1.0);
        const std::size_t n = 1 + rng.uniformInt(9);
        for (std::size_t j = 0; j < n; ++j) {
            jobs.push_back({t, rng.uniform(0.0, 0.5), 0});
            t += rng.uniform(0.0, 3.0);
        }
        const auto instance = OfflineOptInstance::fromJobs(
            jobs, t + rng.uniform(0.0, 5.0));

        const OfflineOptResult exact = oracle.solveExact(instance);
        const OfflineOptResult fptas = oracle.solve(instance);
        EXPECT_LE(fptas.energy, exact.energy + 1e-6);
        EXPECT_LE(exact.energy,
                  (1.0 + options.epsilon) * fptas.energy + 1e-6);
        EXPECT_GE(fptas.upperBound, exact.energy - 1e-6);

        // Re-solving the same instance must be bit-identical.
        const OfflineOptResult again = oracle.solve(instance);
        EXPECT_EQ(fptas.energy, again.energy);
        EXPECT_EQ(fptas.upperBound, again.upperBound);
        EXPECT_EQ(fptas.frontierPeak, again.frontierPeak);
        const OfflineOptResult exact_again = oracle.solveExact(instance);
        EXPECT_EQ(exact.energy, exact_again.energy);
        EXPECT_EQ(exact.jobFrequencies, exact_again.jobFrequencies);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineOptFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

} // namespace
} // namespace sleepscale
