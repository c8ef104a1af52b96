#include "multicore/multicore_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

MulticoreSim::MulticoreSim(const PlatformModel &platform,
                           ServiceScaling scaling, std::size_t cores,
                           const MulticorePolicy &policy)
    : _platform(platform), _scaling(scaling), _policy(policy),
      _corePlan(policy.corePlan, platform, policy.frequency)
{
    fatalIf(cores == 0, "MulticoreSim: need at least one core");
    _nextFree.assign(cores, 0.0);
    rebuildDerived();
}

void
MulticoreSim::rebuildDerived()
{
    fatalIf(!(_policy.frequency > 0.0 && _policy.frequency <= 1.0),
            "MulticoreSim: frequency must be in (0, 1]");
    fatalIf(_policy.corePlan.deepest() == LowPowerState::C6S3,
            "MulticoreSim: C6S3 is a package state; core plans may "
            "descend at most to C6S0(i) — package sleep is controlled "
            "by packageSleepDelay");
    fatalIf(_policy.packageSleepDelay < 0.0,
            "MulticoreSim: packageSleepDelay must be >= 0");

    _corePlan = MaterializedPlan(_policy.corePlan, _platform,
                                 _policy.frequency);
    const double f = _policy.frequency;
    const double m = static_cast<double>(cores());
    _coreActivePower = _platform.cpu().activeCoeff / m * f * f * f;
    _packageWake = _platform.wakeLatency(LowPowerState::C6S3);
}

double
MulticoreSim::corePowerAt(std::size_t core, double t) const
{
    if (t < _nextFree[core])
        return _coreActivePower;
    const std::size_t stage =
        _corePlan.stageAt(t - _nextFree[core]);
    // MaterializedPlan powers include the S0(i) platform share; strip
    // it and scale the CPU share per core. The platform itself is
    // accounted once at package level.
    const double combined = _corePlan.power(stage);
    const double cpu_only = combined - _platform.platform().s0Idle;
    return cpu_only / static_cast<double>(cores());
}

void
MulticoreSim::flushDepartures(double t)
{
    while (!_pending.empty() && _pending.front().depart <= t) {
        const double response = _pending.front().response;
        _pending.pop();
        _stats.response.add(response);
        _stats.responseHistogram.add(response);
        ++_stats.completions;
    }
}

void
MulticoreSim::integrate(double from, double to)
{
    if (to <= from)
        return;

    // Breakpoints: core departure horizons, core descent thresholds,
    // and the package S3 entry instant.
    std::vector<double> cuts;
    const double all_free =
        *std::max_element(_nextFree.begin(), _nextFree.end());
    for (double horizon : _nextFree) {
        if (horizon > from && horizon < to)
            cuts.push_back(horizon);
        for (std::size_t k = 1; k < _corePlan.size(); ++k) {
            const double entry = horizon + _corePlan.enterAfter(k);
            if (entry > from && entry < to)
                cuts.push_back(entry);
        }
    }
    if (std::isfinite(_policy.packageSleepDelay)) {
        const double s3_entry = all_free + _policy.packageSleepDelay;
        if (s3_entry > from && s3_entry < to)
            cuts.push_back(s3_entry);
    }
    cuts.push_back(to);
    std::sort(cuts.begin(), cuts.end());

    const PlatformPowerParams &pkg = _platform.platform();
    double segment_start = from;
    for (double segment_end : cuts) {
        if (segment_end <= segment_start)
            continue;
        const double mid = 0.5 * (segment_start + segment_end);
        const double dt = segment_end - segment_start;

        double power = 0.0;
        bool any_busy = false;
        for (std::size_t c = 0; c < _nextFree.size(); ++c) {
            power += corePowerAt(c, mid);
            any_busy = any_busy || mid < _nextFree[c];
        }
        if (any_busy) {
            power += pkg.s0Active;
        } else if (std::isfinite(_policy.packageSleepDelay) &&
                   mid - all_free >= _policy.packageSleepDelay) {
            power += pkg.s3;
            _stats.packageS3Time += dt;
        } else {
            power += pkg.s0Idle;
            _stats.packageIdleTime += dt;
        }
        _stats.energy += power * dt;
        segment_start = segment_end;
    }
    _stats.elapsed += to - from;
}

void
MulticoreSim::advanceTo(double t)
{
    if (t <= _accountedUntil)
        return;
    integrate(_accountedUntil, t);
    _accountedUntil = t;
    flushDepartures(t);
}

std::size_t
MulticoreSim::offerJob(const Job &job)
{
    fatalIf(job.arrival < _accountedUntil,
            "MulticoreSim::offerJob: arrivals must be offered in order");
    fatalIf(job.size < 0.0, "MulticoreSim::offerJob: negative size");

    const double all_free_before = allFreeTime();
    advanceTo(job.arrival);

    // JSQ by backlog, ties to the lowest index.
    std::size_t core = 0;
    double best_backlog = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < _nextFree.size(); ++c) {
        const double backlog =
            std::max(0.0, _nextFree[c] - job.arrival);
        if (backlog < best_backlog) {
            best_backlog = backlog;
            core = c;
        }
    }

    double service_start;
    if (job.arrival >= _nextFree[core]) {
        const double elapsed = job.arrival - _nextFree[core];
        const std::size_t stage = _corePlan.stageAt(elapsed);
        double wake = _corePlan.wakeLatency(stage);
        if (std::isfinite(_policy.packageSleepDelay) &&
            job.arrival - all_free_before >=
                _policy.packageSleepDelay) {
            // The whole package reached S3: pay its exit latency too.
            wake = std::max(wake, _packageWake);
            ++_stats.packageWakes;
        }
        service_start = job.arrival + wake;
    } else {
        service_start = _nextFree[core];
    }

    const double service =
        job.size * _scaling.factor(_policy.frequency);
    const double depart = service_start + service;
    _pending.push(depart, depart - job.arrival);
    _nextFree[core] = depart;
    return core;
}

void
MulticoreSim::setPolicy(const MulticorePolicy &policy, double t)
{
    advanceTo(t);
    _policy = policy;
    rebuildDerived();
}

double
MulticoreSim::allFreeTime() const
{
    return *std::max_element(_nextFree.begin(), _nextFree.end());
}

MulticoreStats
evaluateMulticorePolicy(const PlatformModel &platform,
                        ServiceScaling scaling, std::size_t cores,
                        const MulticorePolicy &policy,
                        const std::vector<Job> &jobs)
{
    VectorSource source = VectorSource::view(jobs);
    return evaluateMulticorePolicy(platform, scaling, cores, policy,
                                   source, jobs.size());
}

MulticoreStats
evaluateMulticorePolicy(const PlatformModel &platform,
                        ServiceScaling scaling, std::size_t cores,
                        const MulticorePolicy &policy, JobSource &source,
                        std::size_t max_jobs)
{
    fatalIf(max_jobs == 0, "evaluateMulticorePolicy: need jobs");
    MulticoreSim sim(platform, scaling, cores, policy);
    Job job;
    std::size_t offered = 0;
    while (offered < max_jobs && source.next(job)) {
        sim.offerJob(job);
        ++offered;
    }
    fatalIf(offered == 0, "evaluateMulticorePolicy: need jobs");
    sim.advanceTo(sim.allFreeTime());
    return sim.stats();
}

} // namespace sleepscale
