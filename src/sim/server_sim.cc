#include "sim/server_sim.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

PreparedLog
PreparedLog::fromJobs(const std::vector<Job> &jobs)
{
    fatalIf(jobs.empty(), "PreparedLog: need at least one job");
    PreparedLog log;
    log.arrival.reserve(jobs.size());
    log.size.reserve(jobs.size());
    double last_arrival = 0.0;
    for (const Job &job : jobs) {
        // Every comparison below is false for NaN, so finiteness is
        // checked first and explicitly.
        fatalIf(!std::isfinite(job.arrival) || !std::isfinite(job.size),
                "PreparedLog: arrival times and job sizes must be finite");
        fatalIf(job.arrival < last_arrival,
                "PreparedLog: arrivals must be non-decreasing");
        fatalIf(job.arrival < 0.0, "PreparedLog: negative arrival time");
        fatalIf(job.size < 0.0, "PreparedLog: negative job size");
        last_arrival = job.arrival;
        log.demand += job.size;
        log.arrival.push_back(job.arrival);
        log.size.push_back(job.size);
    }
    return log;
}

double
PreparedLog::offeredLoad() const
{
    fatalIf(count() < 2, "PreparedLog: log needs at least two jobs");
    const double span = arrival.back();
    fatalIf(span <= 0.0, "PreparedLog: log spans no time");
    return totalDemand() / span;
}

ReplayCandidate
ReplayCandidate::of(const MaterializedPlan &plan,
                    const PlatformModel &platform, ServiceScaling scaling,
                    double frequency)
{
    return {&plan, scaling.factor(frequency),
            platform.activePower(frequency)};
}

namespace {

/**
 * Two candidate lanes in one 16-byte SIMD register: a GCC/Clang generic
 * vector, so x86-64 gets plain SSE2 (AArch64 gets NEON) with no -march
 * flag. Element-wise add, sub, mul and div round exactly as the scalar
 * operations do, which keeps every lane bit-identical to scalar code.
 */
typedef double LanePair __attribute__((vector_size(2 * sizeof(double))));

/** A LanePair comparison result: all ones (true) or zeros per lane. */
using LaneMask = decltype(LanePair{} <= LanePair{});

static_assert(replayWidth % 2 == 0, "lanes are processed in pairs");

/** One value per lane of a replay block. */
using Lanes = std::array<LanePair, replayWidth / 2>;

LanePair
splat(double x)
{
    return LanePair{x, x};
}

/** Per lane, `a` where `take` is set, else `b` (exact: a bit select). */
LanePair
pick(LaneMask take, LanePair a, LanePair b)
{
    return std::bit_cast<LanePair>((std::bit_cast<LaneMask>(a) & take) |
                                   (std::bit_cast<LaneMask>(b) & ~take));
}

/**
 * A replay block's per-lane constants, stage-major so the lanes of one
 * stage sit side by side. Stages past a lane's own plan are padded with
 * enterAfter = +inf, so the stage selection never picks them.
 */
struct BlockConstants
{
    std::size_t stages = 1; ///< Largest stage count in the block.
    Lanes serviceFactor{};
    Lanes activePower{};
    std::array<Lanes, MaterializedPlan::maxStages> enterAfter{};
    std::array<Lanes, MaterializedPlan::maxStages> power{};
    std::array<Lanes, MaterializedPlan::maxStages> energyBefore{};
    std::array<Lanes, MaterializedPlan::maxStages> wake{};
};

/**
 * The block-replay loop. Per lane and job it performs exactly the
 * scalar accounting of the streaming simulator, in the same order:
 * idle energy of the interrupted descent, then busy energy to the
 * departure, then OnlineStats::add's Welford step. Idle-only terms are
 * selected, not branched to: a busy arrival adds +0.0, which leaves the
 * energy unchanged, so the selects are exact. `Staged` is false when
 * every lane has a single stage (the arrival always interrupts stage
 * 0). That case covers the whole standard policy space, and compiling
 * the stage loop out of it is measurably faster than a runtime bound of
 * one. Non-empty `tails` are fed each lane's response times.
 */
template <bool Staged>
void
replayLanes(const PreparedLog &log, const BlockConstants &c,
            std::span<ReplayOutcome> outcomes,
            std::span<QuantileHistogram> tails)
{
    Lanes next_free{};
    Lanes energy{};
    Lanes mean{};

    const std::size_t n = log.count();
    const double *arrivals = log.arrival.data();
    const double *sizes = log.size.data();
    for (std::size_t i = 0; i < n; ++i) {
        const LanePair arrival = splat(arrivals[i]);
        const LanePair work = splat(sizes[i]);
        // OnlineStats::add divides by the sample count, as a double.
        const LanePair samples = splat(static_cast<double>(i + 1));

        Lanes response{};
        for (std::size_t h = 0; h < response.size(); ++h) {
            const LanePair free_at = next_free[h];
            const LaneMask idle = free_at <= arrival;
            const LanePair gap = arrival - free_at;

            // The stage the arrival interrupts: the deepest one the gap
            // has entered, i.e. MaterializedPlan::stageAt(gap). Busy
            // lanes have a negative gap and keep stage 0.
            LanePair before = c.energyBefore[0][h];
            LanePair power = c.power[0][h];
            LanePair enter = c.enterAfter[0][h];
            LanePair wake = c.wake[0][h];
            if constexpr (Staged) {
                for (std::size_t k = 1; k < c.stages; ++k) {
                    const LaneMask deeper = c.enterAfter[k][h] <= gap;
                    before = pick(deeper, c.energyBefore[k][h], before);
                    power = pick(deeper, c.power[k][h], power);
                    enter = pick(deeper, c.enterAfter[k][h], enter);
                    wake = pick(deeper, c.wake[k][h], wake);
                }
            }

            // MaterializedPlan::idleEnergy(gap); idleEnergy(0) is 0.
            energy[h] += pick(idle, before + power * (gap - enter),
                              LanePair{});
            const LanePair depart = pick(idle, arrival + wake, free_at) +
                                    work * c.serviceFactor[h];
            energy[h] += c.activePower[h] *
                         (depart - pick(idle, arrival, free_at));
            response[h] = depart - arrival;
            mean[h] += (response[h] - mean[h]) / samples;
            next_free[h] = depart;
        }
        for (std::size_t l = 0; l < tails.size(); ++l)
            tails[l].add(response[l / 2][l % 2]);
    }

    for (std::size_t l = 0; l < outcomes.size(); ++l) {
        const double span = next_free[l / 2][l % 2];
        const double joules = energy[l / 2][l % 2];
        outcomes[l].avgPower = span > 0.0 ? joules / span : 0.0;
        outcomes[l].meanResponse = mean[l / 2][l % 2];
    }
}

} // namespace

void
replayBlock(const PreparedLog &log, std::span<const ReplayCandidate> lanes,
            std::span<ReplayOutcome> outcomes,
            std::span<QuantileHistogram> tails)
{
    fatalIf(lanes.empty() || lanes.size() > replayWidth,
            "replayBlock: need 1 to replayWidth candidates");
    fatalIf(outcomes.size() != lanes.size(),
            "replayBlock: need one outcome slot per candidate");
    fatalIf(!tails.empty() && tails.size() != lanes.size(),
            "replayBlock: need no tail histograms or one per candidate");
    fatalIf(log.count() == 0, "replayBlock: need at least one job");

    BlockConstants block;
    for (std::size_t l = 0; l < replayWidth; ++l) {
        // Padding lanes repeat the first candidate.
        const ReplayCandidate &lane = lanes[l < lanes.size() ? l : 0];
        fatalIf(lane.plan == nullptr,
                "replayBlock: candidate has no plan");
        const MaterializedPlan &plan = *lane.plan;
        block.stages = std::max(block.stages, plan.size());
        const std::size_t h = l / 2;
        const std::size_t e = l % 2;
        block.serviceFactor[h][e] = lane.serviceFactor;
        block.activePower[h][e] = lane.activePower;
        for (std::size_t k = 0; k < MaterializedPlan::maxStages; ++k) {
            const bool own = k < plan.size();
            block.enterAfter[k][h][e] =
                own ? plan.enterAfter(k)
                    : std::numeric_limits<double>::infinity();
            block.power[k][h][e] = own ? plan.power(k) : 0.0;
            block.energyBefore[k][h][e] =
                own ? plan.energyBeforeStage(k) : 0.0;
            block.wake[k][h][e] = own ? plan.wakeLatency(k) : 0.0;
        }
    }
    for (QuantileHistogram &tail : tails)
        tail.reset();

    if (block.stages > 1)
        replayLanes<true>(log, block, outcomes, tails);
    else
        replayLanes<false>(log, block, outcomes, tails);
}

ServerSim::ServerSim(const PlatformModel &platform, ServiceScaling scaling,
                     const Policy &initial)
    : _platform(platform), _scaling(scaling), _policy(initial),
      _plan(initial.plan, platform, initial.frequency),
      _activePower(platform.activePower(initial.frequency))
{
}

void
ServerSim::integrateBusy(double from, double to)
{
    const double dt = to - from;
    if (dt <= 0.0)
        return;
    _window.energy += _activePower * dt;
    _window.busyTime += dt;
}

void
ServerSim::accumulateIdle(double start, double end)
{
    // Both bounds are descent-relative (seconds since the idle start).
    // Energy is a prefix-sum difference; residency still walks the (at
    // most maxStages) stages the interval spans.
    _window.energy += _plan.idleEnergy(end) - _plan.idleEnergy(start);
    const std::size_t last = _plan.stageAt(end);
    for (std::size_t stage = _plan.stageAt(start); stage <= last;
         ++stage) {
        const double lo = std::max(start, _plan.enterAfter(stage));
        const double hi =
            stage == last ? end
                          : std::min(end, _plan.enterAfter(stage + 1));
        _window.idleResidency[depthIndex(_plan.state(stage))] += hi - lo;
    }
}

void
ServerSim::integrateIdle(double from, double to)
{
    if (to <= from)
        return;
    accumulateIdle(from - _nextFree, to - _nextFree);
}

void
ServerSim::flushDepartures(double t)
{
    while (!_pending.empty() && _pending.front().depart <= t) {
        const double response = _pending.front().response;
        _pending.pop();
        _window.response.add(response);
        if (_recordTail)
            _window.responseHistogram.add(response);
        ++_window.completions;
    }
}

void
ServerSim::advanceTo(double t)
{
    // Tolerate tiny float regressions from repeated boundary math.
    if (t <= _accountedUntil)
        return;

    if (_accountedUntil < _nextFree) {
        const double busy_end = std::min(t, _nextFree);
        integrateBusy(_accountedUntil, busy_end);
        _accountedUntil = busy_end;
    }
    if (t > _accountedUntil) {
        integrateIdle(std::max(_accountedUntil, _nextFree), t);
        _accountedUntil = t;
    }
    flushDepartures(t);
}

void
ServerSim::offerJob(const Job &job)
{
    fatalIf(job.arrival < _accountedUntil,
            "ServerSim::offerJob: arrivals must be offered in order and "
            "not before already-accounted time");
    fatalIf(job.size < 0.0, "ServerSim::offerJob: negative job size");

    advanceTo(job.arrival);
    ++_window.arrivals;

    double service_start;
    if (job.arrival >= _nextFree) {
        // Idle: the arrival interrupts the descent and triggers wake-up.
        const double elapsed = job.arrival - _nextFree;
        const std::size_t stage = _plan.stageAt(elapsed);
        const double wake = _plan.wakeLatency(stage);
        ++_window.wakeups[depthIndex(_plan.state(stage))];
        _window.wakeTime += wake;
        service_start = job.arrival + wake;
    } else {
        // Busy: FCFS queueing behind committed work.
        service_start = _nextFree;
    }

    const double service =
        job.size * _scaling.factor(_policy.frequency);
    const double depart = service_start + service;
    _pending.push(depart, depart - job.arrival);
    _nextFree = depart;
}

void
ServerSim::setPolicy(const Policy &policy, double t)
{
    fatalIf(policy.frequency <= 0.0 || policy.frequency > 1.0,
            "ServerSim::setPolicy: frequency must be in (0, 1]");
    advanceTo(t);
    _policy = policy;
    _plan = MaterializedPlan(policy.plan, _platform, policy.frequency);
    _activePower = _platform.activePower(policy.frequency);
}

SimStats
ServerSim::harvestWindow()
{
    SimStats harvested = _window;
    harvested.windowEnd = _accountedUntil;

    SimStats fresh;
    fresh.windowStart = _accountedUntil;
    fresh.windowEnd = _accountedUntil;
    _window = fresh;
    return harvested;
}

double
ServerSim::backlog(double t) const
{
    return std::max(0.0, _nextFree - t);
}

PolicyEvaluation
evaluatePolicy(const PlatformModel &platform, ServiceScaling scaling,
               const Policy &policy, const std::vector<Job> &jobs)
{
    fatalIf(jobs.empty(), "evaluatePolicy: need at least one job");

    ServerSim sim(platform, scaling, policy);
    for (const Job &job : jobs)
        sim.offerJob(job);
    // Close the books at the final departure, matching Algorithm 1's
    // power = energy over exactly the active plus idle periods.
    sim.advanceTo(sim.nextFreeTime());

    PolicyEvaluation evaluation{policy, sim.harvestWindow()};
    return evaluation;
}

} // namespace sleepscale
