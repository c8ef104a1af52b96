#include "sim/server_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <tuple>

#include "sim/replay_kernel.hh"
#include "util/error.hh"

// The 32-byte replay body needs an x86 target attribute.
#if defined(__x86_64__) || defined(__i386__)
#define SLEEPSCALE_REPLAY_AVX2 1
#endif

namespace sleepscale {

PreparedLog
PreparedLog::fromJobs(const std::vector<Job> &jobs)
{
    fatalIf(jobs.empty(), "PreparedLog: need at least one job");
    PreparedLog log;
    log.arrival.reserve(jobs.size());
    log.size.reserve(jobs.size());
    for (const Job &job : jobs)
        log.append(job.arrival, job.size);
    return log;
}

void
PreparedLog::clear()
{
    arrival.clear();
    size.clear();
    demand = 0.0;
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
 * GCC/Clang generic vectors of doubles. Element-wise add, sub, mul and
 * div round exactly as the scalar operations do, and selects, maxima
 * and masks copy bits, so every lane is bit-identical to scalar code at
 * either width. Vec2 is one 16-byte register: plain SSE2 on x86-64
 * (NEON on AArch64), no -march flag. Vec4 is one 32-byte register,
 * touched only inside the target("avx2") body; no function takes or
 * returns a vector by value, so the library's ABI does not depend on
 * AVX.
 */
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));

/** Candidate lanes in one vector of type V. */
template <typename V>
inline constexpr std::size_t lanesPerVector = sizeof(V) / sizeof(double);

/**
 * One value per lane of a replay pass, held in four independent
 * vectors: each dependency chain (the departure time above all) then
 * overlaps with three others, where a single vector per chain exposes
 * its latency.
 */
template <typename V>
using Lanes = std::array<V, 4>;

/** Candidates one pass of the V body replays. */
template <typename V>
inline constexpr std::size_t passWidth =
    std::tuple_size_v<Lanes<V>> * lanesPerVector<V>;

static_assert(replayWidth % passWidth<Vec2> == 0 &&
                  replayWidth == passWidth<Vec4>,
              "a block is whole Vec2 passes and one Vec4 pass");

/** The lanes of `v` in lane order. Constant indices only, so the
 * vectors can stay in registers across the replay loop. */
template <typename V>
[[gnu::always_inline]] inline std::array<double, passWidth<V>>
unpack(const Lanes<V> &v)
{
    std::array<double, passWidth<V>> lanes{};
    for (std::size_t h = 0; h < v.size(); ++h) {
        for (std::size_t e = 0; e < lanesPerVector<V>; ++e)
            lanes[h * lanesPerVector<V> + e] = v[h][e];
    }
    return lanes;
}

/**
 * A replay pass's per-lane constants, stage-major so the lanes of one
 * stage sit side by side. Stages past a lane's own plan are padded with
 * enterAfter = +inf, so the stage selection never picks them.
 */
template <typename V>
struct PassConstants
{
    std::size_t stages = 1; ///< Largest stage count in the pass.
    /** Whether each lane's own plan has more than one stage. */
    std::array<bool, passWidth<V>> multiStage{};
    Lanes<V> serviceFactor{};
    Lanes<V> activePower{};
    std::array<Lanes<V>, MaterializedPlan::maxStages> enterAfter{};
    std::array<Lanes<V>, MaterializedPlan::maxStages> power{};
    std::array<Lanes<V>, MaterializedPlan::maxStages> energyBefore{};
    std::array<Lanes<V>, MaterializedPlan::maxStages> wake{};
};

/** Bind 1 to passWidth<V> candidates to `c`; padding lanes repeat the
 * first candidate. */
template <typename V>
[[gnu::always_inline]] inline void
bindPass(std::span<const ReplayCandidate> lanes, PassConstants<V> &c)
{
    constexpr std::size_t w = lanesPerVector<V>;
    for (std::size_t l = 0; l < passWidth<V>; ++l) {
        const ReplayCandidate &lane = lanes[l < lanes.size() ? l : 0];
        const MaterializedPlan &plan = *lane.plan;
        c.stages = std::max(c.stages, plan.size());
        c.multiStage[l] = plan.size() > 1;
        c.serviceFactor[l / w][l % w] = lane.serviceFactor;
        c.activePower[l / w][l % w] = lane.activePower;
        for (std::size_t k = 0; k < MaterializedPlan::maxStages; ++k) {
            const bool own = k < plan.size();
            c.enterAfter[k][l / w][l % w] =
                own ? plan.enterAfter(k)
                    : std::numeric_limits<double>::infinity();
            c.power[k][l / w][l % w] = own ? plan.power(k) : 0.0;
            c.energyBefore[k][l / w][l % w] =
                own ? plan.energyBeforeStage(k) : 0.0;
            c.wake[k][l / w][l % w] = own ? plan.wakeLatency(k) : 0.0;
        }
    }
}

/**
 * The replay loop over one pass. Per lane and job it follows the
 * streaming simulator's FCFS recursion in the same order, but adds up
 * only two sums: the idle time before each service start and the
 * responses, the latter from +0.0 in job order so that it ends as
 * OnlineStats's mean, sum over count. The loop has no divide and no
 * blend:
 *
 *  - service starts at max(arrival, free_at), the value the simulator's
 *    idle/busy branch picks (the two are equal when an arrival meets
 *    the departure before it);
 *  - the idle time grows by start - free_at: the gap on an idle lane,
 *    and +0.0 on a busy one, whose start is free_at (a -0.0 first
 *    arrival adds -0.0, which leaves +0.0);
 *  - the departure is (start + wake) + work x factor, where a busy lane
 *    adds a wake of +0.0: it starts at free_at > arrival >= 0, and
 *    free_at + 0.0 is free_at.
 *
 * After the log a lane's busy time, wake-ups included, is its span (the
 * last departure) minus its idle time, and its joules are P_active x
 * busy time plus its idle energy: P_idle x idle time when its plan has
 * one stage, which it occupies for every gap. A multi-stage plan
 * instead adds, per gap, MaterializedPlan::idleEnergy(gap) of the
 * stage the arrival interrupts (masked to +0.0 on busy lanes). Which
 * formula applies is the lane's own plan's choice, not the pass's, so
 * a one-stage lane keeps its bits beside multi-stage neighbours.
 *
 * `Staged` is false when every lane has a single stage (the arrival
 * always interrupts stage 0). That case covers the whole standard
 * policy space, and compiling the stage loop out of it is measurably
 * faster than a runtime bound of one. Non-empty `tails` are fed each
 * lane's response times.
 */
template <typename V, bool Staged>
[[gnu::always_inline]] inline void
replayPass(const PreparedLog &log, const PassConstants<V> &c,
           std::span<ReplayOutcome> outcomes,
           std::span<QuantileHistogram> tails)
{
    const V zero{};
    // A comparison's lanes: all ones where it holds, all zeros elsewhere.
    using Mask = decltype(zero < zero);
    Lanes<V> next_free{};
    Lanes<V> idle_time{};
    Lanes<V> staged_energy{};
    Lanes<V> total{};

    const std::size_t n = log.count();
    const double *arrivals = log.arrival.data();
    const double *sizes = log.size.data();
    for (std::size_t i = 0; i < n; ++i) {
        // Broadcasts: x - (+0.0) is x exactly, -0.0 included.
        const V arrival = arrivals[i] - zero;
        const V work = sizes[i] - zero;

        Lanes<V> response{};
        for (std::size_t h = 0; h < response.size(); ++h) {
            const V free_at = next_free[h];
            // A maximum (maxpd): the value the simulator's idle/busy
            // branch starts service at.
            const V start = free_at > arrival ? free_at : arrival;
            // Its own comparison: allowing for NaN, the compiler cannot
            // take it for the maximum's negated test, so each stays as
            // written (a maxpd, an and-mask) instead of one shared mask
            // feeding blends.
            const Mask idle = arrival >= free_at;
            idle_time[h] += start - free_at;

            V wake = c.wake[0][h];
            if constexpr (Staged) {
                // The stage the arrival interrupts: the deepest one the
                // gap has entered, i.e. MaterializedPlan::stageAt(gap).
                // Busy lanes have a negative gap and keep stage 0.
                const V gap = arrival - free_at;
                V before = c.energyBefore[0][h];
                V power = c.power[0][h];
                V enter = c.enterAfter[0][h];
                for (std::size_t k = 1; k < c.stages; ++k) {
                    const auto deeper = c.enterAfter[k][h] <= gap;
                    before = deeper ? c.energyBefore[k][h] : before;
                    power = deeper ? c.power[k][h] : power;
                    enter = deeper ? c.enterAfter[k][h] : enter;
                    wake = deeper ? c.wake[k][h] : wake;
                }
                // MaterializedPlan::idleEnergy(gap); busy lanes add
                // +0.0, the and of the mask with the bits.
                staged_energy[h] +=
                    (V)(idle & (Mask)(before + power * (gap - enter)));
            }

            const V depart = (start + (V)(idle & (Mask)wake)) +
                             work * c.serviceFactor[h];
            response[h] = depart - arrival;
            total[h] += response[h];
            next_free[h] = depart;
        }
        if (!tails.empty()) {
            const std::array<double, passWidth<V>> lane = unpack(response);
            for (std::size_t l = 0; l < tails.size(); ++l)
                tails[l].add(lane[l]);
        }
    }

    // OnlineStats::mean() divides by the sample count, as a double.
    const double samples = static_cast<double>(n);
    const std::array<double, passWidth<V>> spans = unpack(next_free);
    const std::array<double, passWidth<V>> idles = unpack(idle_time);
    const std::array<double, passWidth<V>> staged = unpack(staged_energy);
    const std::array<double, passWidth<V>> sums = unpack(total);
    const std::array<double, passWidth<V>> busy_power =
        unpack(c.activePower);
    const std::array<double, passWidth<V>> idle_power = unpack(c.power[0]);
    for (std::size_t l = 0; l < outcomes.size(); ++l) {
        const double idle_joules =
            c.multiStage[l] ? staged[l] : idle_power[l] * idles[l];
        const double joules =
            busy_power[l] * (spans[l] - idles[l]) + idle_joules;
        outcomes[l].avgPower = spans[l] > 0.0 ? joules / spans[l] : 0.0;
        outcomes[l].meanResponse = sums[l] / samples;
    }
}

/** The kernel template: a validated block replayed in passes of
 * passWidth<V> candidates. It and its helpers are always_inline, so
 * each body below compiles them for its own target. */
template <typename V>
[[gnu::always_inline]] inline void
replayPasses(const PreparedLog &log,
             std::span<const ReplayCandidate> lanes,
             std::span<ReplayOutcome> outcomes,
             std::span<QuantileHistogram> tails)
{
    for (std::size_t first = 0; first < lanes.size();
         first += passWidth<V>) {
        const std::size_t count =
            std::min(passWidth<V>, lanes.size() - first);
        PassConstants<V> c;
        bindPass(lanes.subspan(first, count), c);
        const std::span<ReplayOutcome> out =
            outcomes.subspan(first, count);
        const std::span<QuantileHistogram> fed =
            tails.empty() ? tails : tails.subspan(first, count);
        if (c.stages > 1)
            replayPass<V, true>(log, c, out, fed);
        else
            replayPass<V, false>(log, c, out, fed);
    }
}

/** The 16-byte body: two passes of eight lanes per full block. */
void
replaySse2(const PreparedLog &log, std::span<const ReplayCandidate> lanes,
           std::span<ReplayOutcome> outcomes,
           std::span<QuantileHistogram> tails)
{
    replayPasses<Vec2>(log, lanes, outcomes, tails);
}

#ifdef SLEEPSCALE_REPLAY_AVX2
/** The 32-byte body: one pass of sixteen lanes. It enables AVX2 only,
 * not FMA, so GCC cannot contract a * b + c and every lane keeps the
 * separately rounded operations of the 16-byte body. */
[[gnu::target("avx2")]] void
replayAvx2(const PreparedLog &log, std::span<const ReplayCandidate> lanes,
           std::span<ReplayOutcome> outcomes,
           std::span<QuantileHistogram> tails)
{
    replayPasses<Vec4>(log, lanes, outcomes, tails);
}
#endif

} // namespace

ReplayKernel
activeReplayKernel()
{
    // Probed once, at the first replay; both bodies give the same bits.
    static const ReplayKernel active = [] {
#ifdef SLEEPSCALE_REPLAY_AVX2
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            return ReplayKernel::Avx2;
#endif
        return ReplayKernel::Sse2;
    }();
    return active;
}

void
replayBlockWith(ReplayKernel kernel, const PreparedLog &log,
                std::span<const ReplayCandidate> lanes,
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
    for (const ReplayCandidate &lane : lanes)
        fatalIf(lane.plan == nullptr,
                "replayBlock: candidate has no plan");
    fatalIf(kernel == ReplayKernel::Avx2 &&
                activeReplayKernel() != ReplayKernel::Avx2,
            "replayBlock: this host cannot run the AVX2 body");
    for (QuantileHistogram &tail : tails)
        tail.reset();

#ifdef SLEEPSCALE_REPLAY_AVX2
    if (kernel == ReplayKernel::Avx2) {
        replayAvx2(log, lanes, outcomes, tails);
        return;
    }
#endif
    replaySse2(log, lanes, outcomes, tails);
}

void
replayBlock(const PreparedLog &log, std::span<const ReplayCandidate> lanes,
            std::span<ReplayOutcome> outcomes,
            std::span<QuantileHistogram> tails)
{
    replayBlockWith(activeReplayKernel(), log, lanes, outcomes, tails);
}

ServerSim::ServerSim(const PlatformModel &platform, ServiceScaling scaling,
                     const Policy &initial)
    : _platform(platform), _scaling(scaling),
      _plan(initial.plan, platform, initial.frequency),
      _activePower(platform.activePower(initial.frequency)),
      _serviceFactor(scaling.factor(initial.frequency)), _policy(initial)
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

    const double service = job.size * _serviceFactor;
    const double depart = service_start + service;
    _pending.push(depart, depart - job.arrival);
    _nextFree = depart;
}

void
ServerSim::setPolicy(const Policy &policy, double t)
{
    fatalIf(!(policy.frequency > 0.0 && policy.frequency <= 1.0),
            "ServerSim::setPolicy: frequency must be in (0, 1]");
    advanceTo(t);
    _policy = policy;
    _plan = MaterializedPlan(policy.plan, _platform, policy.frequency);
    _activePower = _platform.activePower(policy.frequency);
    _serviceFactor = _scaling.factor(policy.frequency);
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
