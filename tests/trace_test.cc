/**
 * @file
 * Tests for utilization traces and the Figure 7 synthetic generators.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/error.hh"
#include "util/online_stats.hh"
#include "workload/utilization_trace.hh"

namespace sleepscale {
namespace {

TEST(UtilizationTrace, BasicAccessors)
{
    UtilizationTrace trace("t", {0.1, 0.2, 0.3});
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_DOUBLE_EQ(trace.at(1), 0.2);
    EXPECT_DOUBLE_EQ(trace.duration(), 180.0);
    EXPECT_NEAR(trace.meanUtilization(), 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(trace.peakUtilization(), 0.3);
}

TEST(UtilizationTrace, RejectsOutOfRangeValues)
{
    EXPECT_THROW(UtilizationTrace("bad", {-0.1}), ConfigError);
    EXPECT_THROW(UtilizationTrace("bad", {1.0}), ConfigError);
}

TEST(UtilizationTrace, AtValidatesIndex)
{
    UtilizationTrace trace("t", {0.1});
    EXPECT_THROW(trace.at(1), ConfigError);
}

TEST(UtilizationTrace, DailyWindowSelectsHours)
{
    // Two days of minutes, value encodes the hour bucket.
    std::vector<double> values;
    for (int day = 0; day < 2; ++day)
        for (int m = 0; m < 24 * 60; ++m)
            values.push_back(m / 60 < 12 ? 0.1 : 0.9);
    UtilizationTrace trace("t", values);

    const UtilizationTrace morning = trace.dailyWindow(0, 12);
    EXPECT_EQ(morning.size(), 2u * 12 * 60);
    EXPECT_DOUBLE_EQ(morning.peakUtilization(), 0.1);

    const UtilizationTrace paper_window = trace.dailyWindow(2, 20);
    EXPECT_EQ(paper_window.size(), 2u * 18 * 60);
}

TEST(UtilizationTrace, SaveLoadRoundTrip)
{
    UtilizationTrace trace("t", {0.25, 0.5});
    const std::string path = "/tmp/sleepscale_trace_test.csv";
    trace.save(path);
    const UtilizationTrace loaded = UtilizationTrace::load(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded.at(0), 0.25);
    EXPECT_DOUBLE_EQ(loaded.at(1), 0.5);
    std::remove(path.c_str());
}

TEST(UtilizationTrace, LoadAcceptsCrlfLineEndings)
{
    const std::string path = "/tmp/sleepscale_trace_crlf.csv";
    {
        std::ofstream out(path);
        out << "minute,utilization\r\n0,0.25\r\n1,0.5\r\n";
    }
    const UtilizationTrace loaded = UtilizationTrace::load(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded.at(1), 0.5);
    std::remove(path.c_str());
}

TEST(UtilizationTrace, LoadRejectsMalformedCsvWithLineNumbers)
{
    const auto expectLoadError = [](const std::string &content,
                                    const std::string &needle) {
        const std::string path = "/tmp/sleepscale_trace_bad.csv";
        {
            std::ofstream out(path);
            out << content;
        }
        std::string message;
        try {
            UtilizationTrace::load(path);
            ADD_FAILURE() << "expected a ConfigError for: " << content;
        } catch (const ConfigError &error) {
            message = error.what();
        }
        EXPECT_NE(message.find(needle), std::string::npos)
            << "message was: " << message;
        std::remove(path.c_str());
    };

    expectLoadError("minute,utilization\n0,0.2\n1,nan\n",
                    "line 3");
    expectLoadError("minute,utilization\n0,-0.1\n", "outside [0, 1)");
    expectLoadError("minute,utilization\n0,1.5\n", "outside [0, 1)");
    expectLoadError("minute,utilization\n0,0.2\n0,0.3\n",
                    "out-of-order");
    expectLoadError("minute,utilization\n5,0.2\n3,0.3\n",
                    "out-of-order");
    expectLoadError("minute,utilization\n0,oops\n", "non-numeric");
    expectLoadError("minute,load\n0,0.2\n", "no 'utilization' column");
    expectLoadError("minute,utilization\n0\n", "expected 2 cells");

    // Degenerate files get actionable messages instead of a silently
    // empty trace or a confusing header complaint.
    expectLoadError("", "no header row");
    expectLoadError("\n\n", "no header row");
    expectLoadError("# only a comment\n# and another\n", "no header row");
    expectLoadError("minute,utilization\n", "no data rows");
    expectLoadError("minute,utilization", "no data rows");
    expectLoadError("# saved trace\nminute,utilization\n# empty\n",
                    "no data rows");
}

TEST(UtilizationTrace, LoadSkipsCommentLines)
{
    const std::string path = "/tmp/sleepscale_trace_comments.csv";
    {
        std::ofstream out(path);
        out << "# exported by trace tooling\n"
               "minute,utilization\n"
               "0,0.25\n"
               "# midnight marker\n"
               "1,0.5\n";
    }
    const UtilizationTrace loaded = UtilizationTrace::load(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_DOUBLE_EQ(loaded.at(1), 0.5);
    std::remove(path.c_str());
}

// ----------------------------------------------------- synthetic traces

TEST(SynthTraces, FileServerShape)
{
    const UtilizationTrace fs = synthFileServerTrace(3, 42);
    EXPECT_EQ(fs.size(), 3u * 24 * 60);
    // The paper's file server stays within roughly [0, 0.2].
    EXPECT_LE(fs.peakUtilization(), 0.20);
    double min = 1.0;
    for (double u : fs.values())
        min = std::min(min, u);
    EXPECT_GE(min, 0.02);
    EXPECT_LT(fs.meanUtilization(), 0.2);
}

TEST(SynthTraces, EmailStoreCoversWideRange)
{
    const UtilizationTrace es = synthEmailStoreTrace(3, 42);
    EXPECT_EQ(es.size(), 3u * 24 * 60);
    // The paper: utilization ranges roughly 0.1 to 0.9 across the day.
    EXPECT_GE(es.peakUtilization(), 0.85);
    EXPECT_LT(es.meanUtilization(), 0.6);
}

TEST(SynthTraces, EmailStoreBackupSurges)
{
    const UtilizationTrace es = synthEmailStoreTrace(2, 7);
    // Mean inside the backup window (8PM-2AM) far exceeds the daytime
    // mean — the paper's "abrupt surges towards the end of each day".
    OnlineStats backup, daytime;
    for (std::size_t i = 0; i < es.size(); ++i) {
        const auto hour = (i % (24 * 60)) / 60;
        if (hour >= 20 || hour < 2)
            backup.add(es.at(i));
        else
            daytime.add(es.at(i));
    }
    EXPECT_GT(backup.mean(), daytime.mean() + 0.2);
}

TEST(SynthTraces, DeterministicGivenSeed)
{
    const UtilizationTrace a = synthEmailStoreTrace(1, 5);
    const UtilizationTrace b = synthEmailStoreTrace(1, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_DOUBLE_EQ(a.at(i), b.at(i));
}

TEST(SynthTraces, SeedsProduceDifferentTraces)
{
    const UtilizationTrace a = synthFileServerTrace(1, 5);
    const UtilizationTrace b = synthFileServerTrace(1, 6);
    int differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        differing += a.at(i) != b.at(i);
    EXPECT_GT(differing, 1000);
}

TEST(SynthTraces, PaperEvaluationWindowIsExtractable)
{
    const UtilizationTrace es = synthEmailStoreTrace(1, 1);
    const UtilizationTrace window = es.dailyWindow(2, 20);
    EXPECT_EQ(window.size(), 18u * 60);
    // Outside the backup window utilization should be daytime-like.
    EXPECT_LT(window.meanUtilization(), es.meanUtilization() + 0.05);
}

TEST(SynthTraces, RejectZeroDays)
{
    EXPECT_THROW(synthFileServerTrace(0, 1), ConfigError);
    EXPECT_THROW(synthEmailStoreTrace(0, 1), ConfigError);
}

} // namespace
} // namespace sleepscale
