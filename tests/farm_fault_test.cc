/**
 * @file
 * The availability plane (docs/FAULTS.md): fault-source determinism,
 * the ServerFarm crash/recovery lifecycle, dispatcher failover with
 * retry/backoff and drop accounting, degraded-mode policy decisions,
 * and — most load-bearing — the pin that a "none"-fault configuration
 * reproduces the fault-free farm runtime bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "fault/fault_source.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

// ---------------------------------------------------------- FaultSource

bool
sameEvents(const std::vector<FaultEvent> &a,
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

TEST(FaultSources, RegistryListsTheFourFamilies)
{
    for (const char *name : {"none", "mtbf", "correlated", "scripted"})
        EXPECT_TRUE(faultSourceRegistry().contains(name)) << name;
    FaultSourceConfig config;
    EXPECT_THROW(makeFaultSource("voodoo", config), ConfigError);
}

TEST(FaultSources, NoFaultSourceIsEmpty)
{
    NoFaultSource source;
    FaultEvent event;
    EXPECT_FALSE(source.next(event));
    EXPECT_FALSE(source.next(event));
}

TEST(FaultSources, MtbfIsSeedDeterministic)
{
    FaultSourceConfig config;
    config.farmSize = 4;
    config.mtbf = 1000.0;
    config.mttr = 100.0;
    config.seed = 42;
    const auto source = makeFaultSource("mtbf", config);
    const auto events = materializeFaults(*source, 50000.0);
    ASSERT_FALSE(events.empty());

    // Equal seeds reproduce the stream bit-for-bit in an independently
    // constructed source.
    const auto twin = makeFaultSource("mtbf", config);
    EXPECT_TRUE(sameEvents(events, materializeFaults(*twin, 50000.0)));

    // A different seed yields a different schedule.
    config.seed = 43;
    const auto other = makeFaultSource("mtbf", config);
    EXPECT_FALSE(sameEvents(events, materializeFaults(*other, 50000.0)));
}

TEST(FaultSources, MtbfAlternatesDownUpPerServer)
{
    FaultSourceConfig config;
    config.farmSize = 3;
    config.mtbf = 500.0;
    config.mttr = 50.0;
    config.seed = 9;
    const auto source = makeFaultSource("mtbf", config);
    const auto events = materializeFaults(*source, 100000.0);
    ASSERT_GT(events.size(), 10u);

    double last_time = 0.0;
    std::vector<bool> expect_down(config.farmSize, true);
    for (const FaultEvent &event : events) {
        EXPECT_GE(event.time, last_time); // Globally non-decreasing.
        last_time = event.time;
        ASSERT_LT(event.server, config.farmSize);
        // Each server strictly alternates crash / recovery.
        EXPECT_EQ(event.down, expect_down[event.server]);
        expect_down[event.server] = !event.down;
    }
}

TEST(FaultSources, CorrelatedOutagesCoverGroupsWithoutOverlap)
{
    FaultSourceConfig config;
    config.farmSize = 5;
    config.mtbf = 2000.0;
    config.mttr = 200.0;
    config.seed = 11;
    const std::size_t group = correlatedGroup;
    const auto source = makeFaultSource("correlated", config);
    const auto events = materializeFaults(*source, 200000.0);
    ASSERT_GE(events.size(), 2 * group);
    ASSERT_EQ(events.size() % (2 * group), 0u);

    // Events come as one burst of `group` crashes at a common time,
    // then `group` recoveries at a common later time, never
    // overlapping the next outage.
    double previous_up = 0.0;
    for (std::size_t i = 0; i < events.size(); i += 2 * group) {
        const double down_time = events[i].time;
        const double up_time = events[i + group].time;
        EXPECT_GE(down_time, previous_up);
        EXPECT_GT(up_time, down_time);
        std::vector<bool> hit(config.farmSize, false);
        for (std::size_t k = 0; k < group; ++k) {
            const FaultEvent &down = events[i + k];
            const FaultEvent &up = events[i + group + k];
            EXPECT_TRUE(down.down);
            EXPECT_FALSE(up.down);
            EXPECT_EQ(down.time, down_time);
            EXPECT_EQ(up.time, up_time);
            EXPECT_EQ(down.server, up.server);
            ASSERT_LT(down.server, config.farmSize);
            EXPECT_FALSE(hit[down.server]); // Distinct servers.
            hit[down.server] = true;
        }
        previous_up = up_time;
    }

    // Determinism carries over to the correlated family too.
    const auto twin = makeFaultSource("correlated", config);
    EXPECT_TRUE(sameEvents(events, materializeFaults(*twin, 200000.0)));

    // A farm smaller than the group loses every server per outage.
    config.farmSize = 1;
    const auto single = makeFaultSource("correlated", config);
    const auto alone = materializeFaults(*single, 200000.0);
    ASSERT_GE(alone.size(), 2u);
    for (std::size_t i = 0; i < alone.size(); ++i) {
        EXPECT_EQ(alone[i].server, 0u);
        EXPECT_EQ(alone[i].down, i % 2 == 0);
    }
}

TEST(FaultSources, ScriptedReplaysVerbatimAndValidates)
{
    const std::vector<FaultEvent> script = {
        {100.0, 0, true}, {150.0, 1, true}, {150.0, 1, false},
        {220.0, 0, false}};
    FaultSourceConfig config;
    config.farmSize = 2;
    config.script = script;
    const auto source = makeFaultSource("scripted", config);
    EXPECT_TRUE(sameEvents(script, materializeFaults(*source, 1e9)));
    FaultEvent event;
    EXPECT_FALSE(source->next(event)); // Exhausted, forever.
    EXPECT_FALSE(source->next(event));
    config.seed = 999; // Seed ignored: the script IS the schedule.
    const auto reseeded = makeFaultSource("scripted", config);
    EXPECT_TRUE(sameEvents(script, materializeFaults(*reseeded, 1e9)));

    // Validation up front: out-of-order times, out-of-range servers,
    // and non-finite times are configuration errors.
    EXPECT_THROW(ScriptedFaultSource(2, {{50.0, 0, true},
                                         {40.0, 0, false}}),
                 ConfigError);
    EXPECT_THROW(ScriptedFaultSource(2, {{50.0, 2, true}}), ConfigError);
    EXPECT_THROW(ScriptedFaultSource(2, {{-1.0, 0, true}}), ConfigError);

    // An empty script is the no-fault schedule.
    ScriptedFaultSource empty(2, {});
    EXPECT_FALSE(empty.next(event));
}

TEST(FaultSources, FactoryValidatesRates)
{
    FaultSourceConfig config;
    config.farmSize = 2;
    config.mtbf = 0.0;
    EXPECT_THROW(makeFaultSource("mtbf", config), ConfigError);
    config.mtbf = 100.0;
    config.mttr = -1.0;
    EXPECT_THROW(makeFaultSource("correlated", config), ConfigError);
    config.mttr = 10.0;
    config.farmSize = 0;
    EXPECT_THROW(makeFaultSource("mtbf", config), ConfigError);
}

// ------------------------------------------------- ServerFarm lifecycle

class FaultFarmTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    Policy idlePolicy{1.0,
                      SleepPlan::immediate(LowPowerState::C6S0Idle)};

    ServerFarm
    makeFarm(std::size_t size,
             const std::string &dispatcher = "round-robin")
    {
        return ServerFarm(xeon, ServiceScaling::cpuBound(), idlePolicy,
                          size, makeDispatcher(dispatcher));
    }
};

TEST_F(FaultFarmTest, LifecycleWalksDrainDownRecoverUp)
{
    ServerFarm farm = makeFarm(2);
    farm.setRecoverySeconds(10.0);
    EXPECT_TRUE(farm.accepting(0, 0.0));

    // Give one server 5 s of committed work, then crash it mid-job:
    // it drains the backlog, goes dark, and recovers only after the
    // configured delay.
    const std::size_t victim = farm.tryOfferJob({0.0, 5.0});
    const std::size_t other = victim == 0 ? 1 : 0;
    farm.failServer(victim, 1.0);
    EXPECT_FALSE(farm.accepting(victim, 1.0));
    EXPECT_GT(farm.backlog(victim, 1.0), 0.0); // Draining.
    EXPECT_TRUE(farm.accepting(other, 1.0));

    // The crashed server finishes the job it had committed, then sits
    // dark with nothing left.
    farm.advanceTo(20.0);
    EXPECT_FALSE(farm.accepting(victim, 20.0));
    EXPECT_DOUBLE_EQ(farm.backlog(victim, 20.0), 0.0);
    EXPECT_EQ(farm.harvestWindows()[victim].completions, 1u);

    farm.restoreServer(victim, 30.0);
    EXPECT_FALSE(farm.accepting(victim, 35.0)); // Recovering.
    EXPECT_TRUE(farm.accepting(victim, 40.0));

    // Unavailability spans crash (t=1) through the end of the
    // recovery delay (t=40).
    farm.advanceTo(50.0);
    EXPECT_NEAR(farm.downSeconds(victim), 39.0, 1e-9);
    EXPECT_NEAR(farm.totalDownSeconds(), 39.0, 1e-9);
    EXPECT_DOUBLE_EQ(farm.downSeconds(other), 0.0);
}

TEST_F(FaultFarmTest, TryOfferSignalsWhenNoServerAccepts)
{
    ServerFarm farm = makeFarm(2);
    farm.failServer(0, 0.0);
    farm.failServer(0, 0.0); // Idempotent on an already-crashed server.
    farm.failServer(1, 0.0);
    EXPECT_FALSE(farm.accepting(0, 1.0));
    EXPECT_FALSE(farm.accepting(1, 1.0));
    EXPECT_EQ(farm.tryOfferJob({1.0, 1.0}), ServerFarm::noServer);

    // Restoring one server routes everything to it.
    farm.restoreServer(0, 2.0);
    farm.restoreServer(0, 2.0); // No-op on a server that is not crashed.
    EXPECT_EQ(farm.tryOfferJob({3.0, 1.0}), 0u);
    EXPECT_EQ(farm.tryOfferJob({3.5, 1.0}), 0u);

    EXPECT_THROW(farm.failServer(2, 0.0), ConfigError);
    EXPECT_THROW(farm.restoreServer(2, 0.0), ConfigError);
    EXPECT_THROW(farm.setRecoverySeconds(-1.0), ConfigError);
}

// ------------------------------------- failover routing, pick by pick

/**
 * Reference for the failover pin, computed from ServerFarm's public
 * accessors only. The dispatcher sees the servers accepting work at
 * the arrival instant, in index order, and its pick is a position in
 * that eligible list: random draws uniformInt(eligible count), the
 * round-robin cursor advances only when some server accepts, JSQ and
 * packing scan backlogs with a strict < (ties to the lowest index),
 * and a server is idle exactly when its backlog is 0.
 */
class EligibleListRouter
{
  public:
    EligibleListRouter(std::string dispatcher, std::uint64_t seed,
                       double spill_backlog)
        : _dispatcher(std::move(dispatcher)), _rng(seed),
          _spillBacklog(spill_backlog)
    {
    }

    /** Servers accepting work at the last route() instant. */
    std::size_t eligibleCount() const { return _eligible.size(); }

    /** Server the farm should pick for an arrival at `now`, or
     * ServerFarm::noServer when no server accepts work. */
    std::size_t route(const ServerFarm &farm, double now)
    {
        _eligible.clear();
        _backlog.clear();
        for (std::size_t i = 0; i < farm.size(); ++i) {
            if (farm.accepting(i, now)) {
                _eligible.push_back(i);
                _backlog.push_back(farm.backlog(i, now));
            }
        }
        if (_eligible.empty())
            return ServerFarm::noServer;
        return _eligible[choose(_backlog)];
    }

  private:
    std::size_t choose(const std::vector<double> &backlog)
    {
        const std::size_t count = backlog.size();
        if (_dispatcher == "random")
            return _rng.uniformInt(count);
        if (_dispatcher == "round-robin")
            return _next++ % count;
        // Least-backlogged entry (JSQ), or least-backlogged busy entry
        // (packing), first minimum wins.
        const bool busy_only = _dispatcher == "packing";
        std::size_t best = count;
        double best_backlog = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < count; ++k) {
            if (busy_only && backlog[k] == 0.0)
                continue;
            if (backlog[k] < best_backlog) {
                best_backlog = backlog[k];
                best = k;
            }
        }
        if (!busy_only)
            return best;
        if (best < count && best_backlog < _spillBacklog)
            return best;
        for (std::size_t k = 0; k < count; ++k) {
            if (backlog[k] == 0.0)
                return k;
        }
        return best < count ? best : 0;
    }

    std::string _dispatcher;
    Rng _rng;
    double _spillBacklog;
    std::size_t _next = 0;
    std::vector<std::size_t> _eligible; ///< Reused per arrival.
    std::vector<double> _backlog;       ///< Backlog per eligible entry.
};

/** Jobs arriving in one tick: `mean` on average, often zero when the
 * mean is below one. */
std::size_t
arrivalsInTick(Rng &rng, double mean)
{
    const auto whole = static_cast<std::uint64_t>(mean);
    std::size_t count = rng.uniformInt(2 * whole + 1);
    if (rng.uniform() < mean - static_cast<double>(whole))
        ++count;
    return count;
}

/** Arrivals checked by checkFailoverPicks(), by what the farm saw. */
struct PickCoverage
{
    std::size_t allUp = 0;    ///< Every server accepting.
    std::size_t failover = 0; ///< Some, not all, servers accepting.
    std::size_t rejected = 0; ///< No server accepting (noServer).
};

/**
 * Drive one farm through a seeded script of arrivals and crash/restore
 * events and check every tryOfferJob() pick against the reference.
 * Time runs on a 1/8 s grid and job sizes are multiples of 1/4 s with
 * a no-wake-latency policy, so backlogs tie exactly and often. The
 * script has an all-up stretch, churn at ~25% and ~80% of servers
 * down, a window with every server down, and a full restore.
 *
 * @return Arrivals checked, by what the farm saw; counting stops at
 *         the first mismatch.
 */
PickCoverage
checkFailoverPicks(const std::string &dispatcher, std::size_t size,
                   double recovery_seconds)
{
    constexpr std::uint64_t dispatchSeed = 11;
    constexpr double spillBacklog = 1.0;
    constexpr double tick = 0.125;
    const PlatformModel xeon = PlatformModel::xeon();
    const Policy busyIdle{1.0,
                          SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    ServerFarm farm(xeon, ServiceScaling::cpuBound(), busyIdle, size,
                    makeDispatcher(dispatcher, dispatchSeed, spillBacklog));
    farm.setRecoverySeconds(recovery_seconds);
    farm.setRecordTail(false); // Routing reads no histogram.
    EligibleListRouter reference(dispatcher, dispatchSeed, spillBacklog);
    Rng script(mixSeed(size) ^ static_cast<std::uint64_t>(
                                   recovery_seconds * 8.0));

    PickCoverage coverage;
    for (std::size_t step = 0; step < 1600; ++step) {
        const double now = static_cast<double>(step) * tick;
        // Phases: all up [0, 150); churn at ~25% down [150, 600); every
        // server crashed [600, 680); restored, then churn [680, 1000);
        // all restored [1000, 1200); churn at ~80% down [1200, 1600).
        if (step == 600 || step == 680 || step == 1000) {
            for (std::size_t i = 0; i < size; ++i) {
                if (step == 600)
                    farm.failServer(i, now);
                else
                    farm.restoreServer(i, now);
            }
        }
        const bool churn = (step >= 150 && step < 600) ||
                           (step >= 680 && step < 1000) || step >= 1200;
        if (churn) {
            const double down_share = step >= 1200 ? 0.8 : 0.25;
            const std::size_t events = script.uniformInt(2 + size / 32);
            for (std::size_t e = 0; e < events; ++e) {
                const std::size_t server = script.uniformInt(size);
                if (script.uniform() < down_share)
                    farm.failServer(server, now);
                else
                    farm.restoreServer(server, now);
            }
        }
        if (step % 8 == 0)
            farm.advanceTo(now);

        // Load alternates between ~0.4 and ~1.2 every 100 ticks; mean
        // job size is 2.25 s.
        const double load = (step / 100) % 2 == 0 ? 0.4 : 1.2;
        const double mean_jobs =
            load * static_cast<double>(size) * tick / 2.25;
        const std::size_t jobs = arrivalsInTick(script, mean_jobs);
        for (std::size_t j = 0; j < jobs; ++j) {
            const Job job{now, 0.25 * static_cast<double>(
                                          2 + script.uniformInt(15))};
            const std::size_t expected = reference.route(farm, now);
            const std::size_t accepting = reference.eligibleCount();
            const std::size_t pick = farm.tryOfferJob(job);
            if (pick != expected) {
                ADD_FAILURE() << dispatcher << ", " << size
                              << " servers, recovery " << recovery_seconds
                              << " s: arrival at t=" << now << " with "
                              << accepting << " servers accepting went to "
                              << pick << ", reference picks " << expected;
                return coverage;
            }
            if (accepting == size)
                ++coverage.allUp;
            else if (accepting > 0)
                ++coverage.failover;
            else
                ++coverage.rejected;
        }
    }
    return coverage;
}

TEST(FailoverRouting, EveryPickMatchesTheEligibleListReference)
{
    for (const std::string dispatcher :
         {"random", "round-robin", "JSQ", "packing"}) {
        for (const std::size_t size : {3u, 64u, 65u, 130u}) {
            for (const double recovery : {0.0, 7.5}) {
                const PickCoverage coverage =
                    checkFailoverPicks(dispatcher, size, recovery);
                EXPECT_GT(coverage.allUp, size);
                EXPECT_GT(coverage.failover, 4 * size);
                EXPECT_GT(coverage.rejected, 0u);
            }
        }
    }
}

// ------------------------------------------- FarmRuntime failover path

FarmRuntimeConfig
faultRuntimeConfig(std::size_t farm_size, const std::string &control)
{
    FarmRuntimeConfig config;
    config.farmSize = farm_size;
    config.control = control;
    config.dispatchSeed = mixSeed(1);
    config.faultSeed = mixSeed(mixSeed(1));
    config.perServer.epochMinutes = 5;
    return config;
}

FarmRuntimeResult
runFaultScenario(const FarmRuntimeConfig &config,
                 const UtilizationTrace &trace)
{
    const PlatformModel platform = platformByName("xeon");
    const WorkloadSpec workload = workloadByName("dns");
    FarmRuntime runtime(platform, workload, config);
    TraceDrivenSource source(workload, trace, 1, config.farmSize);
    const auto predictor = makePredictor("LC", 10, trace.values());
    return runtime.run(source, trace, *predictor);
}

void
expectConservation(const FarmRuntimeResult &result)
{
    ASSERT_FALSE(result.epochFaults.empty());
    for (const FarmFaultStats &s : result.epochFaults) {
        EXPECT_EQ(s.offered, s.completed + s.dropped + s.inFlight)
            << "at elapsed " << s.elapsedSeconds;
    }
    const FarmFaultStats &final = result.faults;
    EXPECT_EQ(final.offered, final.completed + final.dropped);
    EXPECT_EQ(final.inFlight, 0u); // Everything drained or dropped.
}

TEST(FarmFailover, FullOutageRetriesWithoutLosingJobs)
{
    // Both servers down for 100 s: every arrival in the gap must be
    // retried and eventually admitted — the outage is far shorter
    // than the drop deadline, so nothing may be lost.
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.3));
    for (const char *control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig config = faultRuntimeConfig(2, control);
        config.faults = "scripted";
        config.faultScript = {{600.0, 0, true},
                              {600.0, 1, true},
                              {700.0, 0, false},
                              {700.0, 1, false}};
        config.retryBackoff = 1.0;
        config.dropTimeout = 600.0;

        const FarmRuntimeResult result = runFaultScenario(config, trace);
        expectConservation(result);
        EXPECT_GT(result.faults.retries, 0u) << control;
        EXPECT_EQ(result.faults.dropped, 0u) << control;
        EXPECT_EQ(result.faults.offered, result.faults.completed);
        EXPECT_DOUBLE_EQ(result.faults.goodput(), 1.0);
        // Two servers out for 100 s each.
        EXPECT_NEAR(result.faults.downSeconds, 200.0, 1e-6);
        const double availability = result.faults.availability(2);
        EXPECT_LT(availability, 1.0);
        EXPECT_GT(availability, 0.9);
    }
}

TEST(FarmFailover, OutagePastDeadlineDropsAsSloLoss)
{
    // A 600 s full-farm outage against a 100 s drop deadline: jobs
    // arriving early in the gap exhaust their deadline and are
    // dropped; conservation must still hold with drops counted.
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{600.0, 0, true},
                          {600.0, 1, true},
                          {1200.0, 0, false},
                          {1200.0, 1, false}};
    config.retryBackoff = 1.0;
    config.dropTimeout = 100.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.dropped, 0u);
    EXPECT_GT(result.faults.retries, 0u);
    EXPECT_LT(result.faults.goodput(), 1.0);
    EXPECT_GT(result.faults.goodput(), 0.5);
    EXPECT_EQ(result.faults.admitted + result.faults.dropped,
              result.faults.offered);
}

TEST(FarmFailover, BackoffDelaySaturatesInsteadOfOverflowing)
{
    // Attempt k waits backoff * 2^(k-1) up to the 60 s cap — with
    // exact binary scaling while it is below the cap...
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 1), 1.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 4), 8.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 7), retryBackoffCap);
    // ...and a tiny base must still climb to the cap: 2^(k-1) is
    // computed in saturating form, so neither a pre-clamp on the
    // exponent (the old 2^30 ceiling, which froze sub-nanosecond
    // backoffs at ~1 ms forever) nor double overflow can keep the
    // delay below the cap.
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-12, 80), retryBackoffCap);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-300, 2000), retryBackoffCap);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-300, 4000000000u),
                     retryBackoffCap);
    // A base above the cap is its own ceiling.
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(90.0, 3), 90.0);
    // Monotone non-decreasing and always finite across the whole
    // attempt range.
    double last = 0.0;
    for (unsigned attempts : {1u, 2u, 40u, 1000u, 1100u, 4000000000u}) {
        const double delay = failoverBackoffDelay(1e-9, attempts);
        EXPECT_TRUE(std::isfinite(delay));
        EXPECT_GE(delay, last);
        last = delay;
    }
    EXPECT_THROW(failoverBackoffDelay(0.0, 1), ConfigError);
    EXPECT_THROW(failoverBackoffDelay(1.0, 0), ConfigError);
}

TEST(FarmFailover, AlwaysDownFarmDrainsInBoundedRetries)
{
    // Pathological availability: every server crashes at t = 0 and
    // never recovers, with a sub-nanosecond initial backoff. Before
    // the saturating fix the exponent clamp pinned every retry delay
    // at backoff * 2^30 ~ 1 us of sim time, so draining the queue took
    // ~10^8 retries per job — an effective hang. With saturation the
    // delay doubles to the cap, every job exhausts its drop deadline
    // in a few dozen attempts, and conservation still closes.
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{0.0, 0, true}, {0.0, 1, true}};
    config.retryBackoff = 1e-12;
    config.dropTimeout = 120.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.offered, 0u);
    EXPECT_EQ(result.faults.completed, 0u);
    EXPECT_EQ(result.faults.dropped, result.faults.offered);
    // Delays reach the 120 s deadline within ~47 doublings from 1e-12
    // (plus the capped tail), so the retry bill is a small per-job
    // constant — not the ~10^8 of the pre-fix spin.
    EXPECT_LE(result.faults.retries, result.faults.offered * 60);
}

TEST(FarmFailover, RunThatCompletesNoJobIsNotWithinBudget)
{
    // One server, down from t = 0 for the whole run: every job is
    // dropped and none completes. The whole-run verdict must agree with
    // the per-server one instead of reading the empty window's 0 s mean
    // as within budget.
    const UtilizationTrace trace("flat", std::vector<double>(30, 0.2));
    FarmRuntimeConfig config = faultRuntimeConfig(1, "farm-wide");
    config.dispatcher = "round-robin";
    config.faults = "scripted";
    config.faultScript = {{0.0, 0, true}};
    config.dropTimeout = 10.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.offered, 1000u);
    EXPECT_EQ(result.total.completions, 0u);
    EXPECT_EQ(result.faults.dropped, result.faults.offered);
    ASSERT_EQ(result.servers.size(), 1u);
    EXPECT_FALSE(result.servers[0].withinBudget);
    EXPECT_FALSE(result.withinBudget());

    // The scenario layer reports it as a QoS violation.
    ScenarioSpec spec;
    spec.engine = EngineKind::Farm;
    spec.trace = {.kind = "flat", .flatLevel = 0.2, .flatMinutes = 30};
    spec.loop.farmSize = 1;
    spec.loop.dispatcher = "round-robin";
    spec.loop.faults = "scripted";
    spec.loop.faultScript = config.faultScript;
    spec.loop.dropTimeout = 10.0;
    const ScenarioResult scenario = ExperimentRunner::runScenario(spec);
    EXPECT_EQ(scenario.extra("goodput"), 0.0);
    EXPECT_FALSE(scenario.withinBudget);
}

TEST(FarmFailover, RecoveryDelayExtendsUnavailability)
{
    const UtilizationTrace trace("flat", std::vector<double>(30, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{300.0, 0, true}, {400.0, 0, false}};
    config.recoverySeconds = 50.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    // 100 s outage plus the 50 s Recovering stage.
    EXPECT_NEAR(result.faults.downSeconds, 150.0, 1e-6);
    EXPECT_EQ(result.faults.dropped, 0u);
}

// --------------------------------------------------- degraded decisions

TEST(DegradedMode, StarvedServerFallsBackToSafePolicy)
{
    // Server 1 is down from 310 s to 1500 s: the decisions at 900,
    // 1200 and 1500 s see only downtime since the previous decision and
    // no new jobs, so its decision log (or local load measurement) is
    // starved, and its autonomous decider must fall back to the safe
    // fixed policy instead of deciding on stale data — whichever
    // decision rule the server runs.
    const UtilizationTrace trace("flat", std::vector<double>(40, 0.3));
    const struct
    {
        const char *control;
        const char *strategy;
        /** The feedback controller can saturate on the healthy server,
         * which carries the whole load during the outage; under faults
         * that infeasible decision degrades too. */
        bool healthyNeverDegrades;
    } modes[] = {
        {"per-server", "SS", true},
        {"per-server", "poet", false},
        {"distributed", "SS", true},
    };
    for (const auto &mode : modes) {
        FarmRuntimeConfig config = faultRuntimeConfig(2, mode.control);
        config.perServer =
            strategyConfigByName(mode.strategy, config.perServer);
        config.faults = "scripted";
        config.faultScript = {{310.0, 1, true}, {1500.0, 1, false}};
        const std::string label =
            std::string(mode.control) + "/" + mode.strategy;

        const FarmRuntimeResult result = runFaultScenario(config, trace);
        expectConservation(result);
        EXPECT_GT(result.faults.degradedSeconds, 0.0) << label;

        // Degraded epochs run the fallback policy unboosted and are
        // flagged in their server's stream; the starved ones are on the
        // crashed server.
        ASSERT_EQ(result.servers.size(), 2u);
        std::uint64_t degraded_epochs = 0;
        for (const FarmServerReport &server : result.servers) {
            for (const EpochReport &epoch : server.epochs) {
                const bool starved = server.server == 1 &&
                                     epoch.startTime >= 900.0 &&
                                     epoch.startTime <= 1500.0;
                if (starved) {
                    EXPECT_TRUE(epoch.degraded)
                        << label << " epoch " << epoch.index;
                }
                if (!epoch.degraded)
                    continue;
                ++degraded_epochs;
                EXPECT_TRUE(epoch.decided) << label;
                EXPECT_FALSE(epoch.feasible) << label;
                EXPECT_FALSE(epoch.boosted) << label;
                // The safe fixed policy: f = 1, no sleep descent.
                EXPECT_TRUE(epoch.policy == Policy{}) << label;
                if (mode.healthyNeverDegrades) {
                    EXPECT_EQ(server.server, 1u) << label;
                }
            }
        }
        EXPECT_EQ(degraded_epochs, result.faults.degradedEpochs) << label;
    }
}

TEST(DegradedMode, FinalEpochIsChargedItsActualSpan)
{
    // Server 0 dies at 1494 s and never returns, so the decision at
    // 1800 s is starved and degraded. That last epoch runs from 1800 s
    // to the drained horizon — not a full 300 s epoch — and degraded
    // server-seconds must be charged by that span: once per server the
    // shared farm-wide decider covers, once for the lone starved
    // server under per-server control.
    const UtilizationTrace trace("flat", std::vector<double>(32, 0.3));
    for (const char *control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig config = faultRuntimeConfig(2, control);
        config.faults = "scripted";
        config.faultScript = {{1494.0, 0, true}};

        const FarmRuntimeResult result = runFaultScenario(config, trace);
        expectConservation(result);
        const bool shared = std::string(control) == "farm-wide";
        const double covered = shared ? 2.0 : 1.0;
        const double horizon = result.faults.elapsedSeconds;
        EXPECT_GE(horizon, trace.duration()) << control;
        EXPECT_LT(horizon, 1800.0 + 300.0) << control;
        EXPECT_EQ(result.faults.degradedEpochs, shared ? 2u : 1u)
            << control;
        EXPECT_DOUBLE_EQ(result.faults.degradedSeconds,
                         covered * (horizon - 1800.0))
            << control;
        ASSERT_FALSE(result.epochs.empty());
        EXPECT_TRUE(result.epochs.back().degraded) << control;
    }
}

// A saturated server under faults: λ̂ of the distributed rule sits
// above ρ_b even at f = 1, so every decision is infeasible and the
// farm loop degrades it onto the fallback.
TEST(DegradedMode, InfeasibleDecisionUnderFaultsDegrades)
{
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.95));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "distributed");
    // Faults on, but no outage ever happens: infeasibility alone must
    // trigger the fallback.
    config.faults = "scripted";

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    std::uint64_t degraded = 0;
    for (const FarmServerReport &server : result.servers) {
        for (const EpochReport &epoch : server.epochs) {
            if (!epoch.decided)
                continue;
            ++degraded;
            EXPECT_TRUE(epoch.degraded) << "server " << server.server;
            EXPECT_FALSE(epoch.feasible) << "server " << server.server;
            EXPECT_FALSE(epoch.boosted) << "server " << server.server;
            EXPECT_TRUE(epoch.policy == Policy{})
                << "server " << server.server;
        }
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(result.faults.degradedEpochs, degraded);
}

TEST(DegradedMode, InfeasibleFaultFreeDecisionKeepsTheDecidedPolicy)
{
    // The fault-free twin of the case above: with faults off there is
    // no fallback, so the infeasible decision (full speed) stands,
    // reported infeasible but not degraded.
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.95));
    const FarmRuntimeConfig config = faultRuntimeConfig(2, "distributed");

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    std::size_t decided = 0;
    for (const FarmServerReport &server : result.servers) {
        for (const EpochReport &epoch : server.epochs) {
            if (!epoch.decided)
                continue;
            ++decided;
            EXPECT_FALSE(epoch.feasible) << "server " << server.server;
            EXPECT_FALSE(epoch.degraded) << "server " << server.server;
            EXPECT_EQ(epoch.policy.frequency, 1.0);
        }
    }
    EXPECT_GT(decided, 0u);
    EXPECT_EQ(result.faults.degradedEpochs, 0u);
}

TEST(DegradedMode, FarmWideControllerDegradesWhenRepresentativeDies)
{
    // Farm-wide control decides from server 0's thinned log; crashing
    // server 0 across epochs starves the single controller, which must
    // degrade the whole farm rather than hold a stale search.
    const UtilizationTrace trace("flat", std::vector<double>(40, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{310.0, 0, true}, {1500.0, 0, false}};

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.degradedEpochs, 0u);
    // Farm-wide degradation covers every server in the epoch.
    EXPECT_EQ(result.faults.degradedEpochs % config.farmSize, 0u);
    bool saw_degraded = false;
    for (const EpochReport &epoch : result.epochs)
        saw_degraded = saw_degraded || epoch.degraded;
    EXPECT_TRUE(saw_degraded);
}

// ------------------------------------------------- no-fault equivalence

// The fault layer's cardinal rule: a "none"-fault configuration is
// byte-identical to the fault-free runtime — same totals, same decision
// streams, same RNG consumption. A change here is a behavioural
// regression of the fault-free path, not a re-pin, unless the decision
// rule itself changed on purpose (the SS rows follow the decision-log
// rule of docs/ARCHITECTURE.md, step 3) or the arithmetic of a reported
// statistic did: the mean response became the sum over the count
// (OnlineStats::mean) instead of Welford's running mean, which moved
// the last bits of the mail and google meanResponse column (relative
// change at most 2.6e-15) and nothing else.
struct TotalsPin
{
    const char *workload;
    const char *control;
    double energy;
    double meanResponse;
    double avgPower;
    std::uint64_t jobs;
};

constexpr TotalsPin totalsPins[] = {
    {"dns", "farm-wide", 0x1.4a98fb607579cp+20, 0x1.e59236397053bp-2,
     0x1.7818bd0a2075fp+8, 16641},
    {"dns", "per-server", 0x1.4c1c2340085a2p+20, 0x1.dfabf782f7908p-2,
     0x1.79d12d59e6477p+8, 16641},
    {"mail", "farm-wide", 0x1.9509bfe6c84f2p+20, 0x1.c99f776e949dp-2,
     0x1.ccd2eda01eee8p+8, 35626},
    {"mail", "per-server", 0x1.85708026f800dp+20, 0x1.c85b745da06d2p-2,
     0x1.bb13b07e2377fp+8, 35626},
    {"google", "farm-wide", 0x1.5201231721fb9p+20, 0x1.490185fa4c5cdp-7,
     0x1.80925f2353076p+8, 772151},
    {"google", "per-server", 0x1.518181b8ce9dbp+20,
     0x1.4ac32e6fdfb9bp-7, 0x1.80012850e5484p+8, 772151},
};

ScenarioSpec
pinSpec(const std::string &workload, const std::string &control,
        const std::string &strategy = "SS")
{
    ScenarioSpec spec;
    spec.label = workload + "/" + control + "/" + strategy;
    spec.engine = EngineKind::Farm;
    spec.workload = workload;
    spec.trace = {.kind = "flat", .flatLevel = 0.3, .flatMinutes = 60};
    spec.strategy = strategy;
    spec.loop.farmSize = 3;
    spec.loop.control = control;
    spec.seed = 1;
    return spec;
}

TEST(NoFaultPin, TotalsMatchTheFaultFreeRuntimeBitForBit)
{
    for (const TotalsPin &pin : totalsPins) {
        const ScenarioResult result =
            ExperimentRunner::runScenario(pinSpec(pin.workload,
                                                  pin.control));
        // EXPECT_EQ on doubles on purpose: the contract is bit-for-bit
        // equality, not closeness.
        EXPECT_EQ(result.energy, pin.energy)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.meanResponse, pin.meanResponse)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.avgPower, pin.avgPower)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.jobs, pin.jobs)
            << pin.workload << "/" << pin.control;
    }
}

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    hash ^= value;
    hash *= 1099511628211ull;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

void
hashEpochStream(std::uint64_t &hash, const std::vector<EpochReport> &epochs)
{
    for (const EpochReport &epoch : epochs) {
        fnvMix(hash, doubleBits(epoch.policy.frequency));
        fnvMix(hash,
               static_cast<std::uint64_t>(epoch.policy.plan.deepest()));
        fnvMix(hash, static_cast<std::uint64_t>(epoch.policy.plan.size()));
        fnvMix(hash, (epoch.decided ? 1u : 0u) |
                         (epoch.feasible ? 2u : 0u) |
                         (epoch.boosted ? 4u : 0u));
    }
}

/** Run a pin scenario on FarmRuntime directly: the runner does not
 * expose per-server epoch streams. */
FarmRuntimeResult
runPin(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    const PlatformModel platform = platformByName(spec.platform);
    const UtilizationTrace trace = spec.trace.realize();
    FarmRuntime runtime(platform, workload, farmConfigOf(spec));
    const auto source = sourceOf(spec, workload, trace);
    const auto predictor =
        makePredictor(spec.predictor, 10, trace.values());
    return runtime.run(*source, trace, *predictor);
}

/** FNV hash of every decision stream (farm-level and per-server),
 * per-server energy and routing, and the farm energy. */
std::uint64_t
decisionHash(const FarmRuntimeResult &result)
{
    std::uint64_t hash = 1469598103934665603ull;
    hashEpochStream(hash, result.epochs);
    for (const FarmServerReport &server : result.servers) {
        hashEpochStream(hash, server.epochs);
        fnvMix(hash, doubleBits(server.total.energy));
        fnvMix(hash, server.jobsRouted);
    }
    fnvMix(hash, doubleBits(result.total.energy));
    return hash;
}

TEST(NoFaultPin, DecisionStreamsMatchTheFaultFreeRuntimeBitForBit)
{
    // Whole-run totals can mask compensating decision changes; this
    // pin hashes every epoch's (frequency, sleep plan, flags) across
    // both control modes and all three Table 5 workloads, plus the
    // feedback controller under both modes and the distributed mode.
    const struct
    {
        const char *workload;
        const char *control;
        const char *strategy;
        std::uint64_t hash;
    } decisionPins[] = {
        {"dns", "farm-wide", "SS", 17617608335292751129ull},
        {"dns", "per-server", "SS", 9334709661478072820ull},
        {"mail", "farm-wide", "SS", 3281817410058412223ull},
        {"mail", "per-server", "SS", 11482907085343750592ull},
        {"google", "farm-wide", "SS", 1303420475129017184ull},
        {"google", "per-server", "SS", 11511760066812209774ull},
        {"dns", "farm-wide", "poet", 3906190904782045078ull},
        {"dns", "per-server", "poet", 12570029525244672124ull},
        {"dns", "distributed", "SS", 9664272469862191165ull},
    };

    for (const auto &pin : decisionPins) {
        const ScenarioSpec spec =
            pinSpec(pin.workload, pin.control, pin.strategy);
        const FarmRuntimeResult result = runPin(spec);
        EXPECT_EQ(decisionHash(result), pin.hash)
            << pin.workload << "/" << pin.control << "/" << pin.strategy;

        // A fault-free run reports a clean availability plane.
        EXPECT_EQ(result.faults.dropped, 0u);
        EXPECT_EQ(result.faults.retries, 0u);
        EXPECT_EQ(result.faults.degradedEpochs, 0u);
        EXPECT_DOUBLE_EQ(result.faults.downSeconds, 0.0);
        EXPECT_DOUBLE_EQ(result.faults.availability(spec.loop.farmSize),
                         1.0);
        EXPECT_DOUBLE_EQ(result.faults.goodput(), 1.0);
        expectConservation(result);
    }
}

TEST(FaultPin, MtbfDecisionStreamsAreStable)
{
    // Degraded-mode decisions under a seeded MTBF schedule: outages
    // starve logs and degrade epochs, and this pin hashes the decision
    // streams together with the degraded server-epoch count, so any
    // change to where and how the fallback applies shows up here.
    // (Degraded seconds stay out of the hash;
    // DegradedMode.FinalEpochIsChargedItsActualSpan pins them.)
    const struct
    {
        const char *control;
        std::uint64_t hash;
    } faultPins[] = {
        {"farm-wide", 1558957441381773808ull},
        {"per-server", 8639402493495394953ull},
        {"distributed", 779005951786392717ull},
    };

    // JSQ packs an 8-server farm toward low indices, so high-index
    // servers log few jobs and an outage can starve a whole epoch. The
    // opening 0.9 plateau is above rho_b, so early decisions are
    // infeasible and degrade in every mode.
    std::vector<double> load(60, 0.3);
    std::fill(load.begin(), load.begin() + 15, 0.9);
    const UtilizationTrace trace("step", load);

    for (const auto &pin : faultPins) {
        FarmRuntimeConfig config = faultRuntimeConfig(8, pin.control);
        config.dispatcher = "JSQ";
        config.perServer.overProvision = 0.35;
        config.faults = "mtbf";
        config.mtbf = 600.0;
        config.mttr = 60.0;
        const FarmRuntimeResult result = runFaultScenario(config, trace);

        std::uint64_t hash = decisionHash(result);
        fnvMix(hash, result.faults.degradedEpochs);
        EXPECT_EQ(hash, pin.hash) << pin.control;
        EXPECT_GT(result.faults.degradedEpochs, 0u) << pin.control;
        expectConservation(result);
    }
}

// ------------------------------------------------- paired replication

TEST(FaultReplication, PairedComparisonQuantifiesOutageCost)
{
    // The acceptance experiment in miniature: N replications of a
    // correlated-outage farm against its no-fault twin under common
    // random numbers. A correlated outage takes down correlatedGroup =
    // 2 servers, so a 2-server farm sees full-farm outages and must
    // exercise the retry path.
    ScenarioSpec faulty;
    faulty.label = "faults(correlated)";
    faulty.engine = EngineKind::Farm;
    faulty.trace = {.kind = "flat", .flatLevel = 0.3, .flatMinutes = 45};
    faulty.loop.farmSize = 2;
    faulty.loop.faults = "correlated";
    faulty.loop.mtbf = 900.0;
    faulty.loop.mttr = 120.0;
    faulty.loop.retryBackoff = 0.5;
    faulty.loop.dropTimeout = 240.0;
    faulty.seed = 7;
    faulty.replications = 5;
    ScenarioSpec clean = faulty;
    clean.label = "no-fault";
    clean.loop.faults = "none";

    const PairedComparison comparison = comparePaired(faulty, clean, 0);

    EXPECT_LT(comparison.a.metric("availability").mean(), 1.0);
    EXPECT_GT(comparison.a.metric("availability").mean(), 0.5);
    EXPECT_GT(comparison.a.metric("retries").mean(), 0.0);
    EXPECT_GT(comparison.a.metric("down_s").mean(), 0.0);

    // The no-fault arm is pristine: full availability, no retries,
    // perfect goodput — in every replication, not just on average.
    EXPECT_DOUBLE_EQ(comparison.b.metric("availability").mean(), 1.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("retries").stddev(), 0.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("retries").mean(), 0.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("goodput").mean(), 1.0);

    // Paired deltas (faulty minus clean) carry the outage cost with
    // common random numbers cancelling the stream-to-stream noise.
    EXPECT_LT(comparison.delta("availability").mean(), 0.0);
    EXPECT_GT(comparison.delta("down_s").mean(), 0.0);
    ASSERT_EQ(comparison.a.replications.size(), 5u);
    ASSERT_EQ(comparison.b.replications.size(), 5u);
}

} // namespace
} // namespace sleepscale
