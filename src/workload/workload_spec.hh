/**
 * @file
 * Workload characterizations (paper Table 5) and service-time scaling laws.
 */

#ifndef SLEEPSCALE_WORKLOAD_WORKLOAD_SPEC_HH
#define SLEEPSCALE_WORKLOAD_WORKLOAD_SPEC_HH

#include <functional>
#include <memory>
#include <string>

#include "util/registry.hh"
#include "workload/distribution.hh"

namespace sleepscale {

/**
 * How the service rate responds to the DVFS frequency factor f
 * (paper Section 4.2, lesson 6): service time = size / f^exponent.
 */
struct ServiceScaling
{
    /** Exponent in [0, 1]: 1 = CPU-bound, 0 = memory-bound. */
    double exponent = 1.0;

    /** Effective service-time multiplier at frequency f. */
    double factor(double f) const;

    /** Fully CPU-bound (rate scales as µf). */
    static ServiceScaling cpuBound() { return {1.0}; }
    /** Mildly CPU-bound (µ f^0.5). */
    static ServiceScaling mixed() { return {0.5}; }
    /** Barely CPU-bound (µ f^0.2). */
    static ServiceScaling mostlyMemory() { return {0.2}; }
    /** Memory-bound (rate independent of f). */
    static ServiceScaling memoryBound() { return {0.0}; }
};

/**
 * Statistical characterization of a workload: inter-arrival and service
 * (mean, Cv) pairs plus the frequency-scaling law. Mirrors the BigHouse
 * summary statistics reprinted in the paper's Table 5.
 */
struct WorkloadSpec
{
    std::string name;          ///< Workload name, e.g. "DNS".
    double interArrivalMean;   ///< Seconds (at the trace's native load).
    double interArrivalCv;     ///< Coefficient of variation.
    double serviceMean;        ///< Seconds of work at f = 1.
    double serviceCv;          ///< Coefficient of variation.
    /** How service time stretches as frequency drops. */
    ServiceScaling scaling = ServiceScaling::cpuBound();

    /** Native utilization λ/µ = serviceMean / interArrivalMean. */
    double nativeUtilization() const;

    /** Inter-arrival mean that produces a target utilization. */
    double interArrivalMeanAt(double utilization) const;

    /**
     * Moment-matched inter-arrival distribution at a target utilization.
     */
    std::unique_ptr<Distribution>
    makeInterArrival(double utilization) const;

    /** Moment-matched service-demand distribution (sizes at f = 1). */
    std::unique_ptr<Distribution> makeService() const;

    /**
     * The paper's idealized counterpart: Poisson arrivals and exponential
     * service with the same means (Section 4's model).
     */
    WorkloadSpec idealized() const;
};

/** "DNS-like" workload of Table 5 (1/µ = 194 ms). */
WorkloadSpec dnsWorkload();

/** "Mail-like" workload of Table 5 (heavy-tailed service, Cv = 3.6). */
WorkloadSpec mailWorkload();

/** "Google-like" workload of Table 5 (1/µ = 4.2 ms). */
WorkloadSpec googleWorkload();

/** Factory signature stored in the workload registry. */
using WorkloadFactory = std::function<WorkloadSpec()>;

/**
 * The workload registry. Ships with "dns", "mail", and "google" (the
 * paper's Table 5); extensions register additional characterizations
 * under new names.
 */
Registry<WorkloadFactory> &workloadRegistry();

/** Build a registered workload by name; fatal() on unknown names. */
WorkloadSpec workloadByName(const std::string &name);

} // namespace sleepscale

#endif // SLEEPSCALE_WORKLOAD_WORKLOAD_SPEC_HH
