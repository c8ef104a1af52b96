#include "workload/workload_spec.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

double
ServiceScaling::factor(double f) const
{
    fatalIf(!(f > 0.0 && f <= 1.0), "ServiceScaling: f must be in (0, 1]");
    fatalIf(exponent < 0.0 || exponent > 1.0,
            "ServiceScaling: exponent must be in [0, 1]");
    if (exponent == 0.0)
        return 1.0;
    if (exponent == 1.0)
        return 1.0 / f;
    return 1.0 / std::pow(f, exponent);
}

double
WorkloadSpec::interArrivalMeanAt(double utilization) const
{
    fatalIf(!(utilization > 0.0 && utilization < 1.0),
            "WorkloadSpec: utilization must be in (0, 1)");
    return serviceMean / utilization;
}

std::unique_ptr<Distribution>
WorkloadSpec::makeService() const
{
    return fitDistribution(serviceMean, serviceCv);
}

WorkloadSpec
WorkloadSpec::idealized() const
{
    WorkloadSpec ideal = *this;
    ideal.name = name + " (idealized)";
    ideal.interArrivalCv = 1.0;
    ideal.serviceCv = 1.0;
    return ideal;
}

WorkloadSpec
dnsWorkload()
{
    return {"DNS", 1.1, 1.1, 194e-3, 1.0, ServiceScaling::cpuBound()};
}

WorkloadSpec
mailWorkload()
{
    return {"Mail", 206e-3, 1.9, 92e-3, 3.6, ServiceScaling::cpuBound()};
}

WorkloadSpec
googleWorkload()
{
    return {"Google", 319e-6, 1.2, 4.2e-3, 1.1, ServiceScaling::cpuBound()};
}

Registry<WorkloadFactory> &
workloadRegistry()
{
    static Registry<WorkloadFactory> registry = [] {
        Registry<WorkloadFactory> r("workload");
        r.add("dns", dnsWorkload);
        r.add("mail", mailWorkload);
        r.add("google", googleWorkload);
        return r;
    }();
    return registry;
}

WorkloadSpec
workloadByName(const std::string &name)
{
    return workloadRegistry().get(name)();
}

} // namespace sleepscale
