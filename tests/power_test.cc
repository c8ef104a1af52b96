/**
 * @file
 * Unit tests for the power model against the paper's Tables 1-4.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "power/component_table.hh"
#include "power/low_power_state.hh"
#include "power/platform_model.hh"
#include "util/error.hh"

namespace sleepscale {
namespace {

// ----------------------------------------------------------- state names

TEST(LowPowerState, NamesMatchPaperNotation)
{
    EXPECT_EQ(toString(LowPowerState::C0IdleS0Idle), "C0(i)S0(i)");
    EXPECT_EQ(toString(LowPowerState::C1S0Idle), "C1S0(i)");
    EXPECT_EQ(toString(LowPowerState::C3S0Idle), "C3S0(i)");
    EXPECT_EQ(toString(LowPowerState::C6S0Idle), "C6S0(i)");
    EXPECT_EQ(toString(LowPowerState::C6S3), "C6S3");
}

TEST(LowPowerState, RoundTripThroughStrings)
{
    for (LowPowerState state : allLowPowerStates)
        EXPECT_EQ(lowPowerStateFromString(toString(state)), state);
}

TEST(LowPowerState, UnknownNameThrows)
{
    EXPECT_THROW(lowPowerStateFromString("C9S9"), ConfigError);
}

TEST(LowPowerState, DepthIndexIsOrdered)
{
    for (std::size_t i = 0; i < allLowPowerStates.size(); ++i)
        EXPECT_EQ(depthIndex(allLowPowerStates[i]), i);
}

// -------------------------------------------------------- Xeon, Table 2

class XeonModel : public ::testing::Test
{
  protected:
    PlatformModel model = PlatformModel::xeon();
};

TEST_F(XeonModel, ActivePowerAtFullFrequency)
{
    // 130 * 1^3 + 120 = 250 W.
    EXPECT_DOUBLE_EQ(model.activePower(1.0), 250.0);
}

TEST_F(XeonModel, ActivePowerScalesCubically)
{
    // At f = 0.5: 130 / 8 + 120 = 136.25 W.
    EXPECT_DOUBLE_EQ(model.activePower(0.5), 136.25);
}

TEST_F(XeonModel, OperatingIdlePowerMatchesTable)
{
    // C0(i)S0(i) at f = 1: 75 + 60.5 = 135.5 W (the paper's worked
    // example "75 V^2 f + 52.7" uses a platform subtotal without fan and
    // PSU idle; our platform column sums to 60.5 W as in Table 2).
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C0IdleS0Idle, 1.0),
                     135.5);
    // Cubic in f.
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C0IdleS0Idle, 0.5),
                     75.0 / 8.0 + 60.5);
}

TEST_F(XeonModel, HaltPowerIsQuadraticLeakage)
{
    // C1S0(i): 47 V^2 -> 47 f^2 plus platform idle.
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C1S0Idle, 1.0), 107.5);
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C1S0Idle, 0.5),
                     47.0 / 4.0 + 60.5);
}

TEST_F(XeonModel, DeepStatesAreFrequencyIndependent)
{
    for (LowPowerState state :
         {LowPowerState::C3S0Idle, LowPowerState::C6S0Idle,
          LowPowerState::C6S3}) {
        EXPECT_DOUBLE_EQ(model.lowPower(state, 1.0),
                         model.lowPower(state, 0.3));
    }
}

TEST_F(XeonModel, SleepAndDeepSleepTotals)
{
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C3S0Idle, 1.0), 82.5);
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C6S0Idle, 1.0), 75.5);
    EXPECT_DOUBLE_EQ(model.lowPower(LowPowerState::C6S3, 1.0), 28.1);
}

TEST_F(XeonModel, PowerStrictlyDecreasesWithDepthAtFullFrequency)
{
    double previous = model.activePower(1.0);
    for (LowPowerState state : allLowPowerStates) {
        const double p = model.lowPower(state, 1.0);
        EXPECT_LT(p, previous) << toString(state);
        previous = p;
    }
}

TEST_F(XeonModel, OperatingIdleUndercutsSleepAtLowFrequency)
{
    // With V proportional to f the C0(i) idle power 75 f^3 falls below
    // C3's fixed 22 W for f below (22/75)^(1/3) ~ 0.66 — the crossover
    // behind the paper's lesson 2, where C0(i)S0(i) policies become
    // optimal under mid-range response-time constraints.
    const double crossover = std::cbrt(22.0 / 75.0);
    const double c3 = model.lowPower(LowPowerState::C3S0Idle, 1.0);
    EXPECT_LT(model.lowPower(LowPowerState::C0IdleS0Idle,
                             crossover - 0.05),
              c3);
    EXPECT_GT(model.lowPower(LowPowerState::C0IdleS0Idle,
                             crossover + 0.05),
              c3);
}

TEST_F(XeonModel, WakeLatenciesMatchSection42Choices)
{
    EXPECT_DOUBLE_EQ(model.wakeLatency(LowPowerState::C0IdleS0Idle), 0.0);
    EXPECT_DOUBLE_EQ(model.wakeLatency(LowPowerState::C1S0Idle), 10e-6);
    EXPECT_DOUBLE_EQ(model.wakeLatency(LowPowerState::C3S0Idle), 100e-6);
    EXPECT_DOUBLE_EQ(model.wakeLatency(LowPowerState::C6S0Idle), 1e-3);
    EXPECT_DOUBLE_EQ(model.wakeLatency(LowPowerState::C6S3), 1.0);
}

TEST_F(XeonModel, WakeLatenciesInsideTable4Ranges)
{
    for (LowPowerState state : allLowPowerStates) {
        const WakeLatencyRange range = wakeLatencyRange(state);
        const double w = model.wakeLatency(state);
        EXPECT_GE(w, range.lo) << toString(state);
        EXPECT_LE(w, range.hi) << toString(state);
    }
}

TEST_F(XeonModel, WakeLatencyIncreasesWithDepth)
{
    double previous = -1.0;
    for (LowPowerState state : allLowPowerStates) {
        const double w = model.wakeLatency(state);
        EXPECT_GE(w, previous);
        previous = w;
    }
}

TEST_F(XeonModel, FrequencyDomainValidated)
{
    EXPECT_THROW(model.activePower(0.0), ConfigError);
    EXPECT_THROW(model.activePower(1.5), ConfigError);
    EXPECT_THROW(model.lowPower(LowPowerState::C1S0Idle, -0.1),
                 ConfigError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(model.activePower(nan), ConfigError);
    EXPECT_THROW(model.lowPower(LowPowerState::C1S0Idle, nan),
                 ConfigError);
}

// -------------------------------------------------------- component sums

TEST(ComponentTable, TotalsMatchPlatformPresets)
{
    const auto &table = xeonComponentTable();
    const PlatformPowerParams params;
    EXPECT_NEAR(componentTotalOperating(table), params.s0Active, 1e-9);
    EXPECT_NEAR(componentTotalIdle(table), params.s0Idle, 1e-9);
    EXPECT_NEAR(componentTotalDeeperSleep(table), params.s3, 1e-9);
}

TEST(ComponentTable, HasTheSixPaperComponents)
{
    EXPECT_EQ(xeonComponentTable().size(), 6u);
}

// ------------------------------------------------------------------ Atom

TEST(AtomModel, SmallCpuLargePlatform)
{
    const PlatformModel atom = PlatformModel::atom();
    // CPU dynamic range is small relative to platform power.
    const double cpu_peak = atom.activePower(1.0) - atom.platform().s0Active;
    EXPECT_LT(cpu_peak, 0.2 * atom.platform().s0Active);
}

TEST(AtomModel, OrderingInvariantsHold)
{
    const PlatformModel atom = PlatformModel::atom();
    double previous = atom.activePower(1.0);
    for (LowPowerState state : allLowPowerStates) {
        const double p = atom.lowPower(state, 1.0);
        EXPECT_LT(p, previous);
        previous = p;
    }
}

// ------------------------------------------------------------ validation

TEST(PlatformModelValidation, RejectsNonPositivePowers)
{
    CpuPowerParams cpu;
    cpu.activeCoeff = -1.0;
    EXPECT_THROW(PlatformModel("bad", cpu, PlatformPowerParams{},
                               WakeLatencies{}),
                 ConfigError);
}

TEST(PlatformModelValidation, RejectsNonMonotonicPower)
{
    // Make C6 more power hungry than C3.
    CpuPowerParams cpu;
    cpu.deepSleepPower = cpu.sleepPower + 10.0;
    EXPECT_THROW(PlatformModel("bad", cpu, PlatformPowerParams{},
                               WakeLatencies{}),
                 ConfigError);
}

TEST(PlatformModelValidation, RejectsDecreasingWakeLatency)
{
    WakeLatencies wake;
    wake.c6S0Idle = 1e-6; // shallower than C3's 100us
    EXPECT_THROW(PlatformModel("bad", CpuPowerParams{},
                               PlatformPowerParams{}, wake),
                 ConfigError);
}

} // namespace
} // namespace sleepscale
