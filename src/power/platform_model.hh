/**
 * @file
 * Whole-system power model (paper Section 3.1, Tables 2 and 4).
 *
 * Under the paper's linear-DVFS assumption the supply voltage V is
 * proportional to the frequency factor f, so the datasheet expressions
 * become: C0(a) dynamic power 130 V^2 f -> 130 f^3, C0(i) 75 V^2 f ->
 * 75 f^3, and C1 leakage 47 V^2 -> 47 f^2. C3/C6 powers and all platform
 * powers are constants. Total system power is CPU power plus platform
 * power for the matching S-state.
 */

#ifndef SLEEPSCALE_POWER_PLATFORM_MODEL_HH
#define SLEEPSCALE_POWER_PLATFORM_MODEL_HH

#include <functional>
#include <string>

#include "power/low_power_state.hh"
#include "util/registry.hh"

namespace sleepscale {

/** CPU power parameters (Table 2, CPU row). */
struct CpuPowerParams
{
    double activeCoeff = 130.0;   ///< W at V=f=1 in C0(a); scales as f^3.
    double idleCoeff = 75.0;      ///< W at V=f=1 in C0(i); scales as f^3.
    double haltCoeff = 47.0;      ///< W at V=1 in C1; scales as f^2.
    double sleepPower = 22.0;     ///< W in C3 (constant).
    double deepSleepPower = 15.0; ///< W in C6 (constant).
};

/** Platform (non-CPU) power totals per S-state (Table 2, bottom row). */
struct PlatformPowerParams
{
    double s0Active = 120.0; ///< W in S0(a).
    double s0Idle = 60.5;    ///< W in S0(i).
    double s3 = 13.1;        ///< W in S3.
};

/**
 * Average wake-up latencies back to C0(a)S0(a), in seconds
 * (Section 4.2 choices, drawn from the Table 4 ranges).
 */
struct WakeLatencies
{
    double c0IdleS0Idle = 0.0; ///< Clock already running.
    double c1S0Idle = 10e-6;   ///< From C1(i)S0(i).
    double c3S0Idle = 100e-6;  ///< From C3(i)S0(i).
    double c6S0Idle = 1e-3;    ///< From C6(i)S0(i).
    double c6S3 = 1.0;         ///< From C6S3 (platform suspend).
};

/** Table 4 latency ranges, used for validation and the table bench. */
struct WakeLatencyRange
{
    double lo; ///< Shortest latency, seconds.
    double hi; ///< Longest latency, seconds.
};

/** Valid range for a state's wake-up latency per Table 4. */
WakeLatencyRange wakeLatencyRange(LowPowerState state);

/**
 * Complete power model of a server platform.
 *
 * Immutable after construction; the constructor validates the paper's
 * structural requirements (deeper states consume less power but take
 * longer to wake: P1 > P2 > ... > Pn and w1 < w2 < ... < wn, checked at
 * full frequency).
 */
class PlatformModel
{
  public:
    /**
     * @param name Human-readable platform name.
     * @param cpu CPU power parameters.
     * @param platform Platform power totals per S-state.
     * @param wake Wake-up latencies per low-power state.
     */
    PlatformModel(std::string name, CpuPowerParams cpu,
                  PlatformPowerParams platform, WakeLatencies wake);

    /** Platform name. */
    const std::string &name() const { return _name; }

    /** CPU parameter set. */
    const CpuPowerParams &cpu() const { return _cpu; }

    /** Platform parameter set. */
    const PlatformPowerParams &platform() const { return _platform; }

    /** Wake latency parameter set. */
    const WakeLatencies &wake() const { return _wake; }

    /**
     * Total power in the active state C0(a)S0(a) at frequency factor f.
     *
     * @param f DVFS frequency scaling factor in (0, 1].
     */
    double activePower(double f) const;

    /**
     * Total power in a combined low-power state.
     *
     * C0(i)S0(i) and C1S0(i) depend on the frequency the clock was left
     * at; the deeper states are frequency-independent.
     *
     * @param state The combined low-power state.
     * @param f DVFS frequency factor the system idles at.
     */
    double lowPower(LowPowerState state, double f) const;

    /** Average wake-up latency from a low-power state, in seconds. */
    double wakeLatency(LowPowerState state) const;

    /** Xeon-class preset reproducing the paper's Table 2 exactly. */
    static PlatformModel xeon();

    /**
     * Atom-class preset: ~10 W peak CPU dynamic power against the same
     * platform, reproducing the paper's qualitative Atom observations
     * (small processor power relative to platform power). Synthetic; the
     * paper cites external numbers it does not reprint (see DESIGN.md).
     */
    static PlatformModel atom();

  private:
    std::string _name;
    CpuPowerParams _cpu;
    PlatformPowerParams _platform;
    WakeLatencies _wake;

    void validate() const;
};

/** Factory signature stored in the platform registry. */
using PlatformFactory = std::function<PlatformModel()>;

/**
 * The platform registry. Ships with "xeon" and "atom"; extensions
 * register additional power models under new names.
 */
Registry<PlatformFactory> &platformRegistry();

/** Build a registered platform by name; fatal() on unknown names. */
PlatformModel platformByName(const std::string &name);

} // namespace sleepscale

#endif // SLEEPSCALE_POWER_PLATFORM_MODEL_HH
