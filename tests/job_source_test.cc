/**
 * @file
 * Tests for the streaming JobSource API: source determinism, clone
 * fidelity, combinator semantics, CSV replay validation, the registry,
 * and streaming-vs-materialized equivalence across the engines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/predictor.hh"
#include "core/runtime.hh"
#include "farm/farm_runtime.hh"
#include "multicore/multicore_sim.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

std::vector<Job>
drain(JobSource &source, std::size_t max_jobs = SIZE_MAX)
{
    return materialize(source, max_jobs);
}

void
expectSameJobs(const std::vector<Job> &a, const std::vector<Job> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].arrival, b[i].arrival) << "job " << i;
        ASSERT_EQ(a[i].size, b[i].size) << "job " << i;
        ASSERT_EQ(a[i].classId, b[i].classId) << "job " << i;
    }
}

/** Run fn and return the ConfigError message it must raise. */
template <typename Fn>
std::string
configErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const ConfigError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected a ConfigError";
    return "";
}

std::string
writeTempCsv(const std::string &name, const std::string &content)
{
    const std::string path = "/tmp/sleepscale_" + name;
    std::ofstream out(path);
    out << content;
    return path;
}

// ------------------------------------------------------------ determinism

TEST(JobSourceDeterminism, SameSeedSameStream)
{
    const WorkloadSpec dns = dnsWorkload();
    StationarySource a(dns, 0.3, 42);
    StationarySource b(dns, 0.3, 42);
    expectSameJobs(drain(a, 500), drain(b, 500));
}

TEST(JobSourceDeterminism, ResetReproducesTheStream)
{
    const WorkloadSpec mail = mailWorkload();
    BurstySource source(mail, 0.2, 5.0, 60.0, 600.0, 7);
    const auto first = drain(source, 400);
    source.reset(7);
    expectSameJobs(first, drain(source, 400));
}

TEST(JobSourceDeterminism, CloneContinuesBitIdentically)
{
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.3));
    TraceDrivenSource source(dnsWorkload(), trace, 9);
    drain(source, 100); // advance mid-stream
    const auto copy = source.clone();
    expectSameJobs(drain(source), drain(*copy));
}

TEST(JobSourceDeterminism, CloneAtStartMatchesWholeStream)
{
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.4));
    TraceDrivenSource source(mailWorkload(), trace, 3);
    const auto copy = source.clone();
    expectSameJobs(drain(source), drain(*copy));
}

TEST(JobSourceDeterminism, ArrivalsAreNonDecreasing)
{
    const WorkloadSpec google = googleWorkload();
    BurstySource source(google, 0.3, 8.0, 30.0, 300.0, 5);
    Job previous{}, job;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(source.next(job));
        ASSERT_GE(job.arrival, previous.arrival);
        previous = job;
    }
}

// ----------------------------------------------------------- combinators

TEST(JobSourceCombinators, MergeOrdersByArrival)
{
    std::vector<std::unique_ptr<JobSource>> parts;
    parts.push_back(std::make_unique<StationarySource>(
        dnsWorkload(), 0.2, 1));
    parts.push_back(std::make_unique<StationarySource>(
        dnsWorkload(), 0.2, 2));
    auto merged = merge(std::move(parts));
    Job previous{}, job;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(merged->next(job));
        ASSERT_GE(job.arrival, previous.arrival);
        previous = job;
    }
}

TEST(JobSourceCombinators, MergeTieBreaksByLowestIndex)
{
    // Two deterministic streams with identical arrival instants but
    // distinguishable sizes: the lower-index source must always come
    // out first on a tie.
    std::vector<Job> first, second;
    for (int i = 1; i <= 50; ++i) {
        first.push_back({static_cast<double>(i), 1.0});
        second.push_back({static_cast<double>(i), 2.0});
    }
    std::vector<std::unique_ptr<JobSource>> parts;
    parts.push_back(std::make_unique<VectorSource>(first));
    parts.push_back(std::make_unique<VectorSource>(second));
    auto merged = merge(std::move(parts));
    Job job;
    for (int i = 1; i <= 50; ++i) {
        ASSERT_TRUE(merged->next(job));
        EXPECT_EQ(job.arrival, static_cast<double>(i));
        EXPECT_EQ(job.size, 1.0) << "tie must yield source 0 first";
        ASSERT_TRUE(merged->next(job));
        EXPECT_EQ(job.arrival, static_cast<double>(i));
        EXPECT_EQ(job.size, 2.0);
    }
    EXPECT_FALSE(merged->next(job));
}

TEST(JobSourceCombinators, MergeIsCloneDeterministic)
{
    std::vector<std::unique_ptr<JobSource>> parts;
    parts.push_back(std::make_unique<StationarySource>(
        mailWorkload(), 0.3, 4));
    parts.push_back(std::make_unique<BurstySource>(
        mailWorkload(), 0.1, 4.0, 60.0, 300.0, 5));
    auto merged = merge(std::move(parts));
    drain(*merged, 250); // advance
    const auto copy = merged->clone();
    expectSameJobs(drain(*merged, 500), drain(*copy, 500));
}

TEST(JobSourceCombinators, UntilBoundsTheStream)
{
    StationarySource base(dnsWorkload(), 0.3, 6);
    auto timed = until(base.clone(), 50.0);
    const auto jobs = drain(*timed);
    ASSERT_FALSE(jobs.empty());
    EXPECT_LT(jobs.back().arrival, 50.0);
    Job job;
    EXPECT_FALSE(timed->next(job));
}

TEST(JobSourceCombinators, Validation)
{
    EXPECT_THROW(merge({}), ConfigError);
    // A NaN end time compares false against every arrival, so the
    // bound would never end an unbounded stream.
    EXPECT_THROW(until(std::make_unique<StationarySource>(dnsWorkload(),
                                                          0.3, 1),
                       std::numeric_limits<double>::quiet_NaN()),
                 ConfigError);
    EXPECT_THROW(BurstySource(dnsWorkload(), 0.3, 0.5, 60.0, 600.0, 1),
                 ConfigError);
}

// ---------------------------------------------------------------- replay

TEST(ReplaySource, RoundTripsAJobLog)
{
    const std::string path = writeTempCsv(
        "replay_ok.csv", "arrival,size,class\n"
                         "0.5,0.2,0\n"
                         "1.25,0.1,2\n"
                         "1.25,0.3,1\n"
                         "4,0.05,0\n");
    ReplaySource source(path);
    const auto jobs = drain(source);
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.5);
    EXPECT_DOUBLE_EQ(jobs[1].arrival, 1.25);
    EXPECT_EQ(jobs[1].classId, 2);
    EXPECT_EQ(jobs[2].classId, 1);
    EXPECT_DOUBLE_EQ(jobs[3].size, 0.05);
    std::remove(path.c_str());
}

TEST(ReplaySource, HeaderIsOptionalAndClassDefaultsToZero)
{
    const std::string path =
        writeTempCsv("replay_bare.csv", "1.0,0.5\n2.0,0.25\n");
    ReplaySource source(path);
    const auto jobs = drain(source);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].classId, 0);
    std::remove(path.c_str());
}

TEST(ReplaySource, AcceptsCrlfAndFilesWithoutTrailingNewline)
{
    const std::string path = writeTempCsv(
        "replay_crlf.csv", "arrival,size\r\n1.0,0.5\r\n2.0,0.25");
    ReplaySource source(path);
    Job job;
    ASSERT_TRUE(source.next(job));
    const auto copy = source.clone(); // mid-stream, CRLF offsets
    expectSameJobs(drain(source), drain(*copy));

    // Clone taken after the final unterminated line is exhausted.
    source.reset(0);
    const auto all = drain(source);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_DOUBLE_EQ(all[1].size, 0.25);
    const auto spent = source.clone();
    EXPECT_FALSE(spent->next(job));
    std::remove(path.c_str());
}

TEST(ReplaySource, ResetAndCloneReplayTheFile)
{
    const std::string path = writeTempCsv(
        "replay_reset.csv", "arrival,size\n1,0.1\n2,0.2\n3,0.3\n");
    ReplaySource source(path);
    const auto all = drain(source);
    source.reset(99); // seed ignored
    expectSameJobs(all, drain(source));

    source.reset(0);
    Job job;
    ASSERT_TRUE(source.next(job)); // consume one, then clone
    const auto copy = source.clone();
    expectSameJobs(drain(source), drain(*copy));
    std::remove(path.c_str());
}

TEST(ReplaySource, RejectsMalformedRowsWithLineNumbers)
{
    const auto expectError = [](const std::string &name,
                                const std::string &content,
                                const std::string &needle) {
        const std::string path = writeTempCsv(name, content);
        const std::string message = configErrorOf([&] {
            ReplaySource source(path);
            Job job;
            while (source.next(job)) {
            }
        });
        EXPECT_NE(message.find(needle), std::string::npos)
            << "message was: " << message;
        std::remove(path.c_str());
    };

    expectError("replay_nan.csv", "arrival,size\n1,0.5\nnan,0.5\n",
                "line 3");
    expectError("replay_neg.csv", "arrival,size\n1,-0.5\n", "negative");
    expectError("replay_ooo.csv", "arrival,size\n5,0.1\n2,0.1\n",
                "out-of-order");
    expectError("replay_text.csv", "arrival,size\n1,0.1\noops,0.1\n",
                "non-numeric");
    expectError("replay_width.csv", "arrival,size\n1,0.1,2,9\n",
                "line 2");
    expectError("replay_inf.csv", "arrival,size\ninf,0.1\n",
                "non-finite");
}

TEST(ReplaySource, MissingFileFailsFast)
{
    EXPECT_THROW(ReplaySource("/nonexistent/jobs.csv"), ConfigError);
}

// Regression: the terminated and unterminated spellings of the same
// log must replay identically through every observable path — drain,
// reset, and clones taken at every position, including right after the
// final (unterminated) row was consumed.
TEST(ReplaySource, TrailingPartialLineIsConsistentWithTerminatedTwin)
{
    const std::string body = "arrival,size\n1,0.1\n2,0.2\n3,0.3";
    const std::string with_nl =
        writeTempCsv("replay_nl.csv", body + "\n");
    const std::string without_nl = writeTempCsv("replay_nonl.csv", body);

    ReplaySource a(with_nl);
    ReplaySource b(without_nl);
    const auto all_a = drain(a);
    expectSameJobs(all_a, drain(b));
    ASSERT_EQ(all_a.size(), 3u);

    // Clones at every position, including after the final row.
    for (std::size_t consumed = 0; consumed <= 3; ++consumed) {
        a.reset(0);
        b.reset(0);
        Job job;
        for (std::size_t i = 0; i < consumed; ++i) {
            ASSERT_TRUE(a.next(job));
            ASSERT_TRUE(b.next(job));
        }
        expectSameJobs(drain(*a.clone()), drain(*b.clone()));
    }

    // Clones taken after exhaustion stay exhausted on both twins.
    a.reset(0);
    b.reset(0);
    drain(a);
    drain(b);
    Job job;
    EXPECT_FALSE(a.clone()->next(job));
    EXPECT_FALSE(b.clone()->next(job));

    std::remove(with_nl.c_str());
    std::remove(without_nl.c_str());
}

TEST(ReplaySource, SkipsCommentLinesAnywhere)
{
    const std::string path = writeTempCsv(
        "replay_comments.csv", "# exported job log\n"
                               "# schema v2\n"
                               "arrival,size\n"
                               "1,0.1\n"
                               "# mid-file remark\n"
                               "2,0.2\n");
    ReplaySource source(path);
    const auto jobs = drain(source);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_DOUBLE_EQ(jobs[1].arrival, 2.0);
    std::remove(path.c_str());
}

// Regression: a log that yields nothing must say so instead of
// silently streaming zero jobs into a day-long run.
TEST(ReplaySource, EmptyCommentOnlyAndHeaderOnlyLogsFailFast)
{
    const auto expectNoRows = [](const std::string &name,
                                 const std::string &content) {
        const std::string path = writeTempCsv(name, content);
        const std::string message = configErrorOf([&] {
            ReplaySource source(path);
            Job job;
            while (source.next(job)) {
            }
        });
        EXPECT_NE(message.find("no data rows"), std::string::npos)
            << name << " message was: " << message;
        std::remove(path.c_str());
    };

    expectNoRows("replay_empty.csv", "");
    expectNoRows("replay_blank.csv", "\n\n");
    expectNoRows("replay_comment_only.csv", "# nothing here\n# at all\n");
    expectNoRows("replay_header_nl.csv", "arrival,size\n");
    expectNoRows("replay_header_nonl.csv", "arrival,size");
    expectNoRows("replay_header_comments.csv",
                 "# log\narrival,size\n# empty\n");
}

// -------------------------------------------------------------- registry

TEST(JobSourceRegistry, BuildsEveryRegisteredSource)
{
    JobSourceConfig config;
    config.workload = dnsWorkload();
    config.trace = UtilizationTrace("flat",
                                    std::vector<double>(10, 0.2));
    config.utilization = 0.25;
    config.seed = 3;

    for (const std::string &name : {std::string("trace"),
                                    std::string("stationary"),
                                    std::string("bursty")}) {
        const auto source = makeJobSource(name, config);
        Job job;
        ASSERT_TRUE(source->next(job)) << name;
        EXPECT_GT(job.arrival, 0.0) << name;
    }
}

TEST(JobSourceRegistry, UnknownNamesAndMissingParamsFailFast)
{
    JobSourceConfig config;
    config.workload = dnsWorkload();
    EXPECT_THROW(makeJobSource("psychic", config), ConfigError);
    EXPECT_THROW(makeJobSource("trace", config), ConfigError);
    EXPECT_THROW(makeJobSource("replay", config), ConfigError);
}

// -------------------------------------- streaming == materialized engines

TEST(StreamingEquivalence, SingleServerMatchesVectorRunOnTable5)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.25));
    for (const std::string &name : {std::string("dns"),
                                    std::string("mail"),
                                    std::string("google")}) {
        const WorkloadSpec workload = workloadByName(name);
        TraceDrivenSource source(workload, trace, 13);
        const auto jobs = materialize(*source.clone());

        RuntimeConfig config;
        config.epochMinutes = 5;
        const SleepScaleRuntime runtime(xeon, workload, config);
        NaivePreviousPredictor p1(0.25), p2(0.25);
        const RuntimeResult streamed = runtime.run(source, trace, p1);
        const RuntimeResult materialized =
            runtime.run(jobs, trace, p2);

        ASSERT_EQ(streamed.epochs.size(), materialized.epochs.size())
            << name;
        EXPECT_EQ(streamed.total.completions,
                  materialized.total.completions)
            << name;
        EXPECT_EQ(streamed.total.energy, materialized.total.energy)
            << name;
        EXPECT_EQ(streamed.meanResponse(),
                  materialized.meanResponse())
            << name;
        for (std::size_t e = 0; e < streamed.epochs.size(); ++e) {
            EXPECT_EQ(streamed.epochs[e].policy.frequency,
                      materialized.epochs[e].policy.frequency)
                << name << " epoch " << e;
        }
    }
}

TEST(StreamingEquivalence, FarmMatchesVectorRun)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.2));

    TraceDrivenSource source(dns, trace, 31, 4);
    const auto jobs = materialize(*source.clone());

    FarmRuntimeConfig config;
    config.farmSize = 4;
    config.dispatcher = "JSQ";
    config.perServer.epochMinutes = 5;
    const FarmRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor p1(0.2), p2(0.2);
    const FarmRuntimeResult streamed = runtime.run(source, trace, p1);
    const FarmRuntimeResult materialized =
        runtime.run(jobs, trace, p2);

    EXPECT_EQ(streamed.total.completions,
              materialized.total.completions);
    EXPECT_EQ(streamed.total.energy, materialized.total.energy);
    EXPECT_EQ(streamed.meanResponse(), materialized.meanResponse());
    ASSERT_EQ(streamed.jobsPerServer.size(),
              materialized.jobsPerServer.size());
    for (std::size_t i = 0; i < streamed.jobsPerServer.size(); ++i)
        EXPECT_EQ(streamed.jobsPerServer[i],
                  materialized.jobsPerServer[i]);
}

TEST(StreamingEquivalence, MulticoreMatchesVectorEvaluation)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    StationarySource source(dns, 0.3, 17);
    const auto jobs = materialize(*source.clone(), 20000);

    MulticorePolicy policy;
    policy.frequency = 0.8;
    const MulticoreStats streamed = evaluateMulticorePolicy(
        xeon, dns.scaling, 4, policy, source, 20000);
    const MulticoreStats materialized = evaluateMulticorePolicy(
        xeon, dns.scaling, 4, policy, jobs);
    EXPECT_EQ(streamed.completions, materialized.completions);
    EXPECT_EQ(streamed.energy, materialized.energy);
    EXPECT_EQ(streamed.response.mean(), materialized.response.mean());
}

} // namespace
} // namespace sleepscale
