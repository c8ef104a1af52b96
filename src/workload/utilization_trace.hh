/**
 * @file
 * Minute-granularity utilization traces (paper Figure 7).
 *
 * The paper evaluates SleepScale against real departmental traces (a file
 * server and an email store). Those traces are not public, so this module
 * synthesizes equivalents that reproduce their reported structure: a
 * periodic daily pattern, minute-scale stochastic fluctuation, and (for
 * the email store) abrupt surges from nightly backup jobs. See DESIGN.md
 * for the substitution rationale.
 */

#ifndef SLEEPSCALE_WORKLOAD_UTILIZATION_TRACE_HH
#define SLEEPSCALE_WORKLOAD_UTILIZATION_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace sleepscale {

/** A sequence of per-minute utilization (offered load) values in [0, 1). */
class UtilizationTrace
{
  public:
    UtilizationTrace() = default;

    /**
     * @param name Trace name for reports.
     * @param per_minute Utilization per minute, each in [0, 1).
     */
    UtilizationTrace(std::string name, std::vector<double> per_minute);

    /** Trace name. */
    const std::string &name() const { return _name; }

    /** Number of minutes. */
    std::size_t size() const { return _perMinute.size(); }

    /** Whether the trace holds no samples. */
    bool empty() const { return _perMinute.empty(); }

    /** Utilization of minute i. */
    double at(std::size_t i) const;

    /** Total covered wall-clock time in seconds. */
    double duration() const;

    /** All per-minute values. */
    const std::vector<double> &values() const { return _perMinute; }

    /** Mean utilization across the trace. */
    double meanUtilization() const;

    /** Largest per-minute utilization. */
    double peakUtilization() const;

    /**
     * Sub-trace covering one daily window across every day of the trace,
     * e.g. hours [2, 20) reproduces the paper's "2 AM to 8 PM" window.
     *
     * @param start_hour Inclusive start hour of day [0, 24).
     * @param end_hour Exclusive end hour of day (start_hour, 24].
     */
    UtilizationTrace dailyWindow(unsigned start_hour,
                                 unsigned end_hour) const;

    /** Serialize as a two-column CSV (minute, utilization). */
    void save(const std::string &path) const;

    /** Load a trace saved by save(). Blank and '#' comment lines are
     * skipped; a file with no header (empty or comment-only) or with a
     * header but no data rows fails fast naming the file. */
    static UtilizationTrace load(const std::string &path);

  private:
    std::string _name;
    std::vector<double> _perMinute;
};

/**
 * Synthesize a file-server-like trace: low utilization (~0.02-0.2) with a
 * mild diurnal swell and AR(1) noise.
 *
 * @param days Number of 24-hour days, starting at midnight.
 * @param seed RNG seed (traces are deterministic given the seed).
 */
UtilizationTrace synthFileServerTrace(unsigned days, std::uint64_t seed);

/**
 * Synthesize an email-store-like trace: moderate diurnal utilization with
 * abrupt surges toward 0.9 during the nightly backup window (8 PM - 2 AM),
 * matching the structure the paper reports for its email-store host.
 */
UtilizationTrace synthEmailStoreTrace(unsigned days, std::uint64_t seed);

} // namespace sleepscale

#endif // SLEEPSCALE_WORKLOAD_UTILIZATION_TRACE_HH
