/**
 * @file
 * Scale tests for the event-driven farm core (docs/FARM_SCALE.md):
 * the IdleSet / BusyCalendar index structures, bit-identical results
 * at every shard-pool width, bounded calendar memory over a long
 * streaming run, and the 10k-server million-job smoke run with the
 * conservation invariant checked at every epoch close.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_calendar.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

TEST(IdleSet, TracksLowestMemberAcrossWordBoundaries)
{
    IdleSet set(200);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.lowest(), 200u);

    // Members straddling 64-bit word boundaries: lowest() must walk
    // the summary hierarchy, not just the first word.
    set.insert(130);
    EXPECT_EQ(set.lowest(), 130u);
    set.insert(64);
    EXPECT_EQ(set.lowest(), 64u);
    set.insert(63);
    EXPECT_EQ(set.lowest(), 63u);
    EXPECT_EQ(set.count(), 3u);

    // Idempotent mutation.
    set.insert(64);
    EXPECT_EQ(set.count(), 3u);
    set.erase(63);
    set.erase(63);
    EXPECT_EQ(set.count(), 2u);
    EXPECT_EQ(set.lowest(), 64u);
    EXPECT_FALSE(set.contains(63));
    EXPECT_TRUE(set.contains(130));

    set.erase(64);
    set.erase(130);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.lowest(), 200u);
}

TEST(IdleSet, FullConstructionMatchesNaiveSetAtHundredThousand)
{
    // Three bitmap levels at this size; a fresh farm is all idle.
    const std::size_t size = 100000;
    IdleSet set(size, /*full=*/true);
    EXPECT_EQ(set.count(), size);
    EXPECT_EQ(set.lowest(), 0u);

    // Knock out a prefix and spot-check against the naive answer.
    for (std::size_t i = 0; i < 4097; ++i)
        set.erase(i);
    EXPECT_EQ(set.lowest(), 4097u);
    set.insert(70);
    EXPECT_EQ(set.lowest(), 70u);
    set.erase(70);
    EXPECT_EQ(set.lowest(), 4097u);
    EXPECT_EQ(set.count(), size - 4097);
}

TEST(BusyCalendar, DrainsDueEventsAndDiscardsStaleOnes)
{
    BusyCalendar calendar;
    std::vector<double> next_free = {5.0, 3.0, 9.0};

    // Server 0 was first scheduled to free at 2.0, then an admission
    // extended it to 5.0: the 2.0 entry is stale and must not fire.
    calendar.push(2.0, 0);
    calendar.push(5.0, 0);
    calendar.push(3.0, 1);
    calendar.push(9.0, 2);
    EXPECT_EQ(calendar.pendingEntries(), 4u);

    std::vector<std::size_t> idled;
    calendar.drainDue(5.0, next_free,
                      [&](std::size_t server) { idled.push_back(server); });
    // Time order: stale 2.0 discarded, then 3.0 (server 1), 5.0
    // (server 0); server 2 is still due in the future.
    ASSERT_EQ(idled.size(), 2u);
    EXPECT_EQ(idled[0], 1u);
    EXPECT_EQ(idled[1], 0u);
    EXPECT_EQ(calendar.pendingEntries(), 1u);
    EXPECT_EQ(calendar.earliestBusy(next_free), 2u);
}

TEST(BusyCalendar, EarliestBusyBreaksTiesToLowestServer)
{
    BusyCalendar calendar;
    std::vector<double> next_free = {7.0, 7.0, 4.0};
    calendar.push(7.0, 1);
    calendar.push(7.0, 0);
    calendar.push(4.0, 2);

    // Valid earliest is server 2; after invalidating it (the mirror
    // moved on), the 7.0 tie must resolve to server 0.
    EXPECT_EQ(calendar.earliestBusy(next_free), 2u);
    next_free[2] = 11.0;
    EXPECT_EQ(calendar.earliestBusy(next_free), 0u);

    next_free[0] = 8.0;
    next_free[1] = 8.0;
    EXPECT_EQ(calendar.earliestBusy(next_free), BusyCalendar::none);
    EXPECT_TRUE(calendar.empty());
}

FarmRuntimeConfig
scaleConfig(std::size_t size, const std::string &control)
{
    FarmRuntimeConfig config;
    config.farmSize = size;
    config.dispatcher = "JSQ";
    config.control = control;
    config.perServer.epochMinutes = 5;
    return config;
}

FarmRuntimeResult
runScale(const FarmRuntimeConfig &config, const std::vector<Job> &jobs,
         const UtilizationTrace &trace)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const FarmRuntime runtime(xeon, dns, config);
    OfflinePredictor predictor(trace.values());
    return runtime.run(jobs, trace, predictor);
}

void
expectBitIdentical(const FarmRuntimeResult &got,
                   const FarmRuntimeResult &expect,
                   const std::string &context)
{
    // Exact equality on doubles on purpose: sharding must change the
    // schedule of the accounting work, never its arithmetic.
    EXPECT_EQ(got.total.completions, expect.total.completions) << context;
    EXPECT_EQ(got.total.arrivals, expect.total.arrivals) << context;
    EXPECT_EQ(got.total.energy, expect.total.energy) << context;
    EXPECT_EQ(got.total.busyTime, expect.total.busyTime) << context;
    EXPECT_EQ(got.total.response.mean(), expect.total.response.mean())
        << context;
    EXPECT_EQ(got.total.responsePercentile(0.95),
              expect.total.responsePercentile(0.95))
        << context;
    ASSERT_EQ(got.epochs.size(), expect.epochs.size()) << context;
    for (std::size_t e = 0; e < expect.epochs.size(); ++e) {
        EXPECT_EQ(got.epochs[e].policy.toString(),
                  expect.epochs[e].policy.toString())
            << context << " epoch " << e;
        EXPECT_EQ(got.epochs[e].stats.energy, expect.epochs[e].stats.energy)
            << context << " epoch " << e;
    }
    ASSERT_EQ(got.servers.size(), expect.servers.size()) << context;
    for (std::size_t i = 0; i < expect.servers.size(); ++i) {
        EXPECT_EQ(got.servers[i].total.completions,
                  expect.servers[i].total.completions)
            << context << " server " << i;
        EXPECT_EQ(got.servers[i].total.energy,
                  expect.servers[i].total.energy)
            << context << " server " << i;
    }
}

// The shard pool only changes which lane integrates which server's
// accounting; per-server state is untouched and the reduction runs in
// index order, so any lane count must be bit-identical to serial.
// Pinned at 1 (serial), 2, and 8 lanes over both control planes.
TEST(FarmScale, ShardCountIsBitIdentical)
{
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.3));
    TraceDrivenSource source(dnsWorkload(), trace, 23, 96);
    const auto jobs = materialize(source);

    for (const std::string control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig serial = scaleConfig(96, control);
        serial.shards = 1;
        const FarmRuntimeResult baseline = runScale(serial, jobs, trace);

        for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
            FarmRuntimeConfig sharded = scaleConfig(96, control);
            sharded.shards = shards;
            const FarmRuntimeResult got = runScale(sharded, jobs, trace);
            expectBitIdentical(got, baseline,
                               control + " shards=" +
                                   std::to_string(shards));
        }
    }
}

// Dropping tail histograms must not move any scalar statistic: the
// streaming moments are kept either way, only percentile buckets go.
TEST(FarmScale, TailHistogramOptOutKeepsScalarStatsBitIdentical)
{
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.3));
    TraceDrivenSource source(dnsWorkload(), trace, 29, 16);
    const auto jobs = materialize(source);

    FarmRuntimeConfig with = scaleConfig(16, "farm-wide");
    FarmRuntimeConfig without = scaleConfig(16, "farm-wide");
    without.tailHistograms = false;
    const FarmRuntimeResult a = runScale(with, jobs, trace);
    const FarmRuntimeResult b = runScale(without, jobs, trace);

    EXPECT_EQ(a.total.completions, b.total.completions);
    EXPECT_EQ(a.total.energy, b.total.energy);
    EXPECT_EQ(a.total.response.mean(), b.total.response.mean());
    // The histogram really is off: percentile queries see no samples.
    EXPECT_GT(a.total.responsePercentile(0.95), 0.0);
    EXPECT_EQ(b.total.responsePercentile(0.95), 0.0);
}

// Long streaming run against a directly-driven farm: the calendar
// must stay bounded by the number of undrained admissions (no leak of
// stale entries) and drain to exactly zero once the farm goes idle.
TEST(FarmScale, CalendarStaysBoundedOverStreamingRun)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    const std::size_t size = 1000;
    ServerFarm farm(xeon, ServiceScaling::cpuBound(), policy, size,
                    makeDispatcher("JSQ", 5));
    farm.setRecordTail(false);

    Rng rng(11);
    double t = 0.0;
    std::size_t max_entries = 0;
    for (int burst = 0; burst < 200; ++burst) {
        for (int j = 0; j < 500; ++j) {
            t += rng.exponential(1.0 / 500.0);
            farm.tryOfferJob(Job{t, rng.exponential(0.05)});
        }
        // Advancing drains every due event: what remains are future
        // queue-empties entries, at most a small multiple of the farm
        // size at this load.
        farm.advanceTo(t);
        max_entries = std::max(max_entries, farm.calendarEntries());
    }
    EXPECT_LE(max_entries, 4 * size);

    // Quiesce: every server idle again, calendar fully drained.
    farm.advanceTo(t + 3600.0);
    EXPECT_EQ(farm.calendarEntries(), 0u);
    const auto windows = farm.harvestWindows();
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    for (const SimStats &w : windows) {
        arrivals += w.arrivals;
        completions += w.completions;
    }
    EXPECT_EQ(arrivals, 100000u);
    EXPECT_EQ(completions, 100000u);
}

// The headline smoke run: 10k servers, a million-plus jobs, streamed
// through the event-driven core with auto sharding and no per-server
// tail histograms. Must finish in seconds (the event wheel makes the
// per-arrival cost O(log N)) and conserve jobs at every epoch close.
TEST(FarmScale, TenThousandServerMillionJobRunConserves)
{
    const std::size_t size = 10000;
    const UtilizationTrace trace("flat", std::vector<double>(2, 0.17));
    TraceDrivenSource source(dnsWorkload(), trace, 42, size);
    const auto jobs = materialize(source);
    ASSERT_GT(jobs.size(), 1000000u);

    FarmRuntimeConfig config = scaleConfig(size, "farm-wide");
    config.perServer.epochMinutes = 1;
    config.shards = 0;          // Auto: scale lanes with the farm.
    config.tailHistograms = false;
    const FarmRuntimeResult result = runScale(config, jobs, trace);

    // Everything offered is accounted for at every epoch close...
    ASSERT_FALSE(result.epochFaults.empty());
    for (const FarmFaultStats &s : result.epochFaults)
        EXPECT_EQ(s.offered, s.completed + s.dropped + s.inFlight)
            << "at elapsed " << s.elapsedSeconds;
    // ...and the final drain leaves nothing in flight or dropped.
    EXPECT_EQ(result.faults.inFlight, 0u);
    EXPECT_EQ(result.faults.dropped, 0u);
    EXPECT_EQ(result.total.completions, jobs.size());
    ASSERT_EQ(result.servers.size(), size);

    // Per-server totals still reconcile with the farm merge.
    std::uint64_t completions = 0;
    for (const FarmServerReport &server : result.servers)
        completions += server.total.completions;
    EXPECT_EQ(completions, result.total.completions);
}

} // namespace
} // namespace sleepscale
