/**
 * @file
 * Golden decision-snapshot regression for the Table 5 workloads.
 *
 * Pins the per-epoch (frequency, sleep-state) decisions and the total
 * energy of one canonical SleepScale day-slice per workload (dns,
 * mail, google) to committed golden CSVs under tests/golden/, plus
 * the offline-optimal oracle's energy and the strategy's regret on a
 * thinned variant of each slice (docs/OFFLINE_OPT.md). Any change to
 * the predictor chain, the policy-evaluation engine, the QoS budget,
 * the simulator, or the oracle that shifts a single epoch decision or
 * regret number fails here with a per-epoch diff instead of silently
 * changing every figure downstream.
 *
 * Regeneration (after an INTENDED behavior change):
 *
 *   tools/update_goldens.sh
 *
 * which rebuilds this test and reruns it with SLEEPSCALE_UPDATE_GOLDENS=1
 * set, rewriting the committed files; the git diff then shows exactly
 * which decisions moved.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "experiment/runner.hh"
#include "util/csv.hh"
#include "util/error.hh"

namespace sleepscale {
namespace {

#ifndef SLEEPSCALE_SOURCE_DIR
#error "SLEEPSCALE_SOURCE_DIR must point at the repository root"
#endif

std::string
goldenPath(const std::string &workload)
{
    return std::string(SLEEPSCALE_SOURCE_DIR) + "/tests/golden/table5_" +
           workload + ".csv";
}

/** The canonical pinned scenario: one 2AM-8AM email-store slice. */
ScenarioSpec
goldenScenario(const std::string &workload)
{
    return ScenarioBuilder("golden " + workload)
        .workload(workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(20140614)
        .window(2, 8)
        .epochMinutes(5)
        .strategy("SS")
        .overProvision(0.35)
        .rhoB(0.8)
        .predictor("LC")
        .seed(20140614)
        .captureEpochs()
        .build();
}

/** Decisions + total energy as a CSV table (constant energy column). */
CsvTable
snapshotOf(const ScenarioResult &result)
{
    CsvTable table;
    table.headers = {"epoch", "frequency", "state_depth",
                     "total_energy_j"};
    const auto epochs = result.epochs.column("epoch");
    const auto frequencies = result.epochs.column("frequency");
    const auto depths = result.epochs.column("state_depth");
    for (std::size_t i = 0; i < epochs.size(); ++i)
        table.addRow(
            {epochs[i], frequencies[i], depths[i], result.energy});
    return table;
}

class GoldenSnapshot : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoldenSnapshot, Table5DecisionsMatchGolden)
{
    const std::string workload = GetParam();
    const ScenarioResult result =
        ExperimentRunner::runScenario(goldenScenario(workload));
    const CsvTable actual = snapshotOf(result);
    const std::string path = goldenPath(workload);

    if (std::getenv("SLEEPSCALE_UPDATE_GOLDENS") != nullptr) {
        writeCsvFile(path, actual);
        std::cout << "golden updated: " << path << " ("
                  << actual.rows.size() << " epochs)\n";
        return;
    }

    CsvTable golden;
    try {
        golden = readCsvFile(path);
    } catch (const ConfigError &error) {
        FAIL() << "cannot read golden file " << path << ": "
               << error.what()
               << "\n(generate it with tools/update_goldens.sh)";
    }

    ASSERT_EQ(golden.headers, actual.headers) << path;
    ASSERT_EQ(golden.rows.size(), actual.rows.size())
        << workload << ": epoch count changed (golden "
        << golden.rows.size() << ", actual " << actual.rows.size()
        << "); regenerate with tools/update_goldens.sh if intended";

    // Per-epoch diff: collect every divergence before failing, so the
    // failure message shows the whole drift, not just the first row.
    std::string diff;
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        const double golden_f = golden.rows[i][1];
        const double actual_f = actual.rows[i][1];
        const double golden_depth = golden.rows[i][2];
        const double actual_depth = actual.rows[i][2];
        if (std::fabs(golden_f - actual_f) > 1e-9 ||
            golden_depth != actual_depth) {
            diff += "  epoch " + std::to_string(i) + ": golden (f=" +
                    std::to_string(golden_f) + ", depth=" +
                    std::to_string(static_cast<int>(golden_depth)) +
                    ") vs actual (f=" + std::to_string(actual_f) +
                    ", depth=" +
                    std::to_string(static_cast<int>(actual_depth)) +
                    ")\n";
        }
    }
    EXPECT_TRUE(diff.empty())
        << workload << ": per-epoch decisions drifted from " << path
        << ":\n"
        << diff
        << "regenerate with tools/update_goldens.sh if this change is "
           "intended";

    const double golden_energy = golden.rows.front()[3];
    EXPECT_NEAR(result.energy / golden_energy, 1.0, 1e-9)
        << workload << ": total energy drifted (golden "
        << golden_energy << " J, actual " << result.energy << " J)";
}

INSTANTIATE_TEST_SUITE_P(Table5, GoldenSnapshot,
                         ::testing::Values("dns", "mail", "google"));

// ------------------------------------------------ oracle regret pins
//
// Golden regret snapshots (docs/OFFLINE_OPT.md): the same 2AM-8AM
// slices scored against the offline-optimal oracle, pinning the
// per-epoch decisions alongside offline_opt_energy and regret_pct in
// tests/golden/table5_<workload>_regret.csv. The mail and google
// arrival streams are thinned (the slice packs 10-100x more jobs
// than dns at the same utilization) so each oracle solve stays a few
// seconds; the thinned log is pinned like any other scenario knob.
// Regeneration: tools/update_goldens.sh, same as the decision pins.

struct RegretGoldenCase
{
    const char *workload;
    double rate_scale;
};

ScenarioSpec
regretScenario(const RegretGoldenCase &c)
{
    return ScenarioBuilder(std::string("golden regret ") + c.workload)
        .workload(c.workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(20140614)
        .window(2, 8)
        .epochMinutes(5)
        .strategy("SS")
        .overProvision(0.35)
        .rhoB(0.8)
        .predictor("LC")
        .sourceRateScale(c.rate_scale)
        .reportRegret()
        .seed(20140614)
        .captureEpochs()
        .build();
}

/** Decisions + oracle scalars, one row per epoch (the energy, oracle,
 * and regret columns are constant; keeping the per-epoch rows is what
 * makes a failure diff per-epoch). */
CsvTable
regretSnapshotOf(const ScenarioResult &result)
{
    CsvTable table;
    table.headers = {"epoch",          "frequency",
                     "state_depth",    "total_energy_j",
                     "offline_opt_energy_j", "regret_pct"};
    const auto epochs = result.epochs.column("epoch");
    const auto frequencies = result.epochs.column("frequency");
    const auto depths = result.epochs.column("state_depth");
    for (std::size_t i = 0; i < epochs.size(); ++i)
        table.addRow({epochs[i], frequencies[i], depths[i],
                      result.energy,
                      result.extra("offline_opt_energy"),
                      result.extra("regret_pct")});
    return table;
}

class GoldenRegret : public ::testing::TestWithParam<RegretGoldenCase>
{
};

TEST_P(GoldenRegret, Table5RegretMatchesGolden)
{
    const RegretGoldenCase c = GetParam();
    const ScenarioResult result =
        ExperimentRunner::runScenario(regretScenario(c));
    const CsvTable actual = regretSnapshotOf(result);
    const std::string path = std::string(SLEEPSCALE_SOURCE_DIR) +
                             "/tests/golden/table5_" + c.workload +
                             "_regret.csv";

    if (std::getenv("SLEEPSCALE_UPDATE_GOLDENS") != nullptr) {
        writeCsvFile(path, actual);
        std::cout << "golden updated: " << path << " ("
                  << actual.rows.size() << " epochs)\n";
        return;
    }

    CsvTable golden;
    try {
        golden = readCsvFile(path);
    } catch (const ConfigError &error) {
        FAIL() << "cannot read golden file " << path << ": "
               << error.what()
               << "\n(generate it with tools/update_goldens.sh)";
    }

    ASSERT_EQ(golden.headers, actual.headers) << path;
    ASSERT_EQ(golden.rows.size(), actual.rows.size())
        << c.workload << ": epoch count changed (golden "
        << golden.rows.size() << ", actual " << actual.rows.size()
        << "); regenerate with tools/update_goldens.sh if intended";

    // Per-epoch decision diff first: if decisions drifted, the log
    // the oracle scored drifted too, and the regret delta is just a
    // symptom of that.
    std::string diff;
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        if (std::fabs(golden.rows[i][1] - actual.rows[i][1]) > 1e-9 ||
            golden.rows[i][2] != actual.rows[i][2]) {
            diff += "  epoch " + std::to_string(i) + ": golden (f=" +
                    std::to_string(golden.rows[i][1]) + ", depth=" +
                    std::to_string(static_cast<int>(golden.rows[i][2])) +
                    ") vs actual (f=" +
                    std::to_string(actual.rows[i][1]) + ", depth=" +
                    std::to_string(static_cast<int>(actual.rows[i][2])) +
                    ")\n";
        }
    }
    EXPECT_TRUE(diff.empty())
        << c.workload << ": per-epoch decisions drifted from " << path
        << ":\n"
        << diff
        << "regenerate with tools/update_goldens.sh if this change is "
           "intended";

    // Oracle pins: a drift here with unchanged decisions means the
    // oracle itself moved (docs/OFFLINE_OPT.md).
    const double golden_opt = golden.rows.front()[4];
    const double actual_opt = result.extra("offline_opt_energy");
    EXPECT_NEAR(actual_opt / golden_opt, 1.0, 1e-9)
        << c.workload << ": offline-optimal energy drifted (golden "
        << golden_opt << " J, actual " << actual_opt << " J)";
    const double golden_regret = golden.rows.front()[5];
    EXPECT_NEAR(result.extra("regret_pct"), golden_regret, 1e-7)
        << c.workload << ": regret drifted (golden " << golden_regret
        << "%, actual " << result.extra("regret_pct") << "%)";
    // And the invariant the pins ride on: the strategy never beats
    // the certified lower bound.
    EXPECT_GE(result.extra("regret_pct"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, GoldenRegret,
    ::testing::Values(RegretGoldenCase{"dns", 1.0},
                      RegretGoldenCase{"mail", 0.3},
                      RegretGoldenCase{"google", 0.05}),
    [](const ::testing::TestParamInfo<RegretGoldenCase> &param_info) {
        return std::string(param_info.param.workload);
    });

} // namespace
} // namespace sleepscale
