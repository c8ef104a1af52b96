/**
 * @file
 * Tests for the command-line argument parser and runtime CSV export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/runtime.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/cli_args.hh"
#include "util/error.hh"
#include "workload/job_source.hh"

namespace sleepscale {
namespace {

CliArgs
parse(std::initializer_list<const char *> words,
      const std::set<std::string> &known = {"rho", "workload", "flag"})
{
    std::vector<const char *> argv = {"sleepscale"};
    argv.insert(argv.end(), words.begin(), words.end());
    return CliArgs(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(CliArgs, ParsesCommandAndOptions)
{
    const CliArgs args = parse({"run", "--rho", "0.25", "--flag"});
    EXPECT_EQ(args.command(), "run");
    EXPECT_TRUE(args.has("rho"));
    EXPECT_DOUBLE_EQ(args.getDouble("rho", 0.0), 0.25);
    EXPECT_TRUE(args.has("flag"));
    EXPECT_EQ(args.get("flag", ""), "true");
}

TEST(CliArgs, DefaultsApplyWhenAbsent)
{
    const CliArgs args = parse({"run"});
    EXPECT_FALSE(args.has("rho"));
    EXPECT_DOUBLE_EQ(args.getDouble("rho", 0.5), 0.5);
    EXPECT_EQ(args.get("workload", "dns"), "dns");
    EXPECT_EQ(args.getUnsigned("rho", 7), 7u);
}

TEST(CliArgs, NoCommandIsEmpty)
{
    const CliArgs args = parse({"--rho", "0.1"});
    EXPECT_EQ(args.command(), "");
}

TEST(CliArgs, UnknownOptionRejected)
{
    EXPECT_THROW(parse({"run", "--bogus", "1"}), ConfigError);
}

TEST(CliArgs, MalformedValuesRejected)
{
    const CliArgs args = parse({"run", "--rho", "abc"});
    EXPECT_THROW(args.getDouble("rho", 0.0), ConfigError);
    EXPECT_THROW(args.getUnsigned("rho", 0), ConfigError);
}

TEST(CliArgs, TrailingJunkRejected)
{
    // "5x" must be a loud typo, not a silent 5 — same for doubles.
    const CliArgs args = parse({"run", "--rho", "0.5x"});
    EXPECT_THROW(args.getDouble("rho", 0.0), ConfigError);
    const CliArgs ints = parse({"run", "--rho", "5x"});
    EXPECT_THROW(ints.getUnsigned("rho", 0), ConfigError);
}

TEST(CliArgs, NonFiniteDoublesRejected)
{
    // "nan" parses cleanly but defeats every downstream range check
    // (NaN compares false against any bound), so the boundary rejects
    // it — same for infinities.
    for (const char *bad : {"nan", "inf", "-inf", "NAN"}) {
        const CliArgs args = parse({"run", "--rho", bad});
        EXPECT_THROW(args.getDouble("rho", 0.0), ConfigError) << bad;
    }
}

TEST(CliArgs, NegativeUnsignedRejected)
{
    const std::set<std::string> known = {"n"};
    std::vector<const char *> argv = {"x", "--n", "-3"};
    // "-3" is treated as a value (no "--" prefix), then rejected.
    const CliArgs args(static_cast<int>(argv.size()), argv.data(),
                       known);
    EXPECT_THROW(args.getUnsigned("n", 0), ConfigError);
}

TEST(CliArgs, BareWordsAfterOptionsRejected)
{
    EXPECT_THROW(parse({"run", "extra"}), ConfigError);
}

TEST(CliArgs, UnsignedMustFitTheDestination)
{
    // A value the field cannot hold fails rather than wrapping
    // (4294967301 would become an unsigned 5); every value it can hold,
    // up to a 64-bit seed's largest, parses.
    const CliArgs args = parse({"run", "--rho", "4294967301"});
    EXPECT_THROW(args.getUnsigned<unsigned>("rho", 5), ConfigError);
    EXPECT_EQ(args.getUnsigned("rho", 5), 4294967301ul);
    const CliArgs largest = parse({"run", "--rho", "4294967295"});
    EXPECT_EQ(largest.getUnsigned<unsigned>("rho", 5), 4294967295u);
    const CliArgs seed = parse({"run", "--rho", "18446744073709551615"});
    EXPECT_EQ(seed.getUnsigned<std::uint64_t>("rho", 1),
              std::numeric_limits<std::uint64_t>::max());
    const CliArgs beyond = parse({"run", "--rho", "18446744073709551616"});
    EXPECT_THROW(beyond.getUnsigned("rho", 1), ConfigError);
}

TEST(CliArgs, ListsFollowTheScalarRules)
{
    const std::set<std::string> known = {"alpha", "T", "names"};
    const CliArgs args = parse({"grid", "--alpha", "0,0.35", "--T",
                                "1,5,10", "--names", "SS,DVFS"},
                               known);
    EXPECT_EQ(args.getDoubleList("alpha"),
              (std::vector<double>{0.0, 0.35}));
    EXPECT_EQ(args.getUnsignedList<unsigned>("T"),
              (std::vector<unsigned>{1, 5, 10}));
    EXPECT_EQ(args.getList("names"),
              (std::vector<std::string>{"SS", "DVFS"}));
    EXPECT_TRUE(args.getList("absent").empty());

    // Every item must be one whole finite number, as for getDouble(),
    // or a non-finite α runs a meaningless grid row ...
    for (const char *bad : {"0.25,inf", "nan,0.25", "0.25,0.5x", "0.25,x"})
        EXPECT_THROW(
            parse({"grid", "--alpha", bad}, known).getDoubleList("alpha"),
            ConfigError)
            << bad;
    // ... and one whole integer that fits the field, as for
    // getUnsigned<T>().
    for (const char *bad : {"5,4294967301", "5,5x", "5,-3", "5.0"})
        EXPECT_THROW(parse({"grid", "--T", bad}, known)
                         .getUnsignedList<unsigned>("T"),
                     ConfigError)
            << bad;
    // An empty item is a typo, not a shorter list: skipping it would
    // turn "xeon,,atom" into a two-server farm.
    for (const char *bad : {",SS", "SS,,DVFS", "SS,", ","})
        EXPECT_THROW(parse({"grid", "--names", bad}, known).getList("names"),
                     ConfigError)
            << bad;
    EXPECT_THROW(parse({"grid", "--T", "5,,10"}, known)
                     .getUnsignedList<unsigned>("T"),
                 ConfigError);
    EXPECT_THROW(parse({"grid", "--alpha", "0,0.35,"}, known)
                     .getDoubleList("alpha"),
                 ConfigError);
}

// ------------------------------------------------------------ CSV export

TEST(EpochCsv, ExportsOneRowPerEpoch)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.2));
    TraceDrivenSource source(dns, trace, 5);
    const auto jobs = materialize(source);

    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.2);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);

    const CsvTable table = epochsToCsv(result.epochs);
    EXPECT_EQ(table.rows.size(), result.epochs.size());
    const auto power = table.column("avg_power_w");
    for (double watts : power) {
        EXPECT_GE(watts, 0.0);
        EXPECT_LT(watts, xeon.activePower(1.0));
    }
    const auto freq = table.column("frequency");
    for (double f : freq) {
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
    // Round trip through text.
    const CsvTable parsed = fromCsv(toCsv(table));
    EXPECT_EQ(parsed.rows.size(), table.rows.size());
}

} // namespace
} // namespace sleepscale
