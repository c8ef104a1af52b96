#include "farm/farm_runtime.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

#include "control/controller_manager.hh"
#include "core/policy_manager.hh"
#include "farm/rate_scaler.hh"
#include "util/error.hh"
#include "util/monotonic_clock.hh"
#include "util/thread_pool.hh"

namespace sleepscale {

namespace {

constexpr double secondsPerMinute = 60.0;

// Shard width for the farm's per-server accounting loops: explicit
// widths are honored (capped at the farm size); 0 sizes automatically
// at one lane per 1024 servers, capped at the hardware concurrency,
// so small farms stay serial and huge farms fan out.
std::size_t
resolveShards(std::size_t shards, std::size_t farm_size)
{
    if (shards != 0)
        return std::min(shards, std::max<std::size_t>(farm_size, 1));
    const std::size_t by_size = farm_size / 1024 + 1;
    return std::min(by_size, ThreadPool::hardwareLanes());
}

/** Build the fault-source configuration a runtime config describes. */
FaultSourceConfig
faultConfigOf(const FarmRuntimeConfig &config)
{
    FaultSourceConfig fault;
    fault.farmSize = config.farmSize;
    fault.mtbf = config.mtbf;
    fault.mttr = config.mttr;
    fault.correlatedGroup = config.correlatedGroup;
    fault.script = config.faultScript;
    fault.seed = config.faultSeed;
    return fault;
}

/**
 * Drives one run's availability plane: applies crash/recovery events
 * to the farm in time order, and owns the failover retry queue — jobs
 * that found every server down, waiting out a capped exponential
 * backoff in sim time until a retry succeeds or the drop timeout
 * expires. Inactive ("none") drivers reduce to one tryOfferJob() per
 * arrival, so fault-free runs reproduce the pre-fault farm
 * bit-for-bit.
 */
class FaultDriver
{
  public:
    FaultDriver(ServerFarm &farm, const FarmRuntimeConfig &config)
        : _farm(farm), _active(config.faults != "none"),
          _backoff(config.retryBackoff),
          _backoffCap(std::max(config.retryBackoffCap,
                               config.retryBackoff)),
          _dropTimeout(config.dropTimeout)
    {
        if (_active) {
            _source = makeFaultSource(config.faults,
                                      faultConfigOf(config));
            _hasEvent = _source->next(_event);
        }
    }

    /** Whether a fault schedule is driving this run. */
    bool active() const { return _active; }

    /** Called with (job, server) for every admission that happens
     * inside the retry queue, so run loops can keep their decision
     * logs complete. */
    void setAdmitHook(std::function<void(const Job &, std::size_t)> hook)
    {
        _onAdmit = std::move(hook);
    }

    /**
     * Apply fault events and due retries up to time t, interleaved in
     * time order (events win ties so a recovery at t can admit a retry
     * due at t).
     */
    void catchUp(double t)
    {
        if (!_active)
            return;
        for (;;) {
            const bool event_due = _hasEvent && _event.time <= t;
            const bool retry_due =
                !_queue.empty() && _queue.front().due <= t;
            if (event_due &&
                (!retry_due || _event.time <= _queue.front().due)) {
                applyEvent();
            } else if (retry_due) {
                retryFront();
            } else {
                break;
            }
        }
    }

    /**
     * Offer a fresh arrival (catchUp(job.arrival) must have run).
     * When every server is down the job enters the retry queue.
     *
     * @return Admitting server index, or ServerFarm::noServer.
     */
    std::size_t offer(const Job &job)
    {
        ++_stats.offered;
        const std::size_t pick = _farm.tryOfferJob(job);
        if (pick != ServerFarm::noServer) {
            ++_stats.admitted;
            return pick;
        }
        schedule(job, job.arrival, job.arrival + _dropTimeout);
        return ServerFarm::noServer;
    }

    /**
     * After the arrival stream ends: keep interleaving events and
     * retries until the queue empties (every entry is eventually
     * admitted or dropped — backoff delays are strictly positive).
     */
    void drain()
    {
        while (_active && !_queue.empty())
            catchUp(_queue.front().due);
    }

    /** Offered/admitted/dropped/retry counters so far. */
    const FarmFaultStats &stats() const { return _stats; }

    /** Jobs currently waiting in the retry queue. */
    std::size_t queued() const { return _queue.size(); }

  private:
    /** One parked job: when to retry it and when to give up. */
    struct RetryEntry
    {
        Job job;
        double due = 0.0;      ///< Next dispatch attempt, sim time.
        double deadline = 0.0; ///< Original arrival + drop timeout.
        unsigned attempts = 0; ///< Failed dispatch attempts so far.
    };

    void applyEvent()
    {
        if (_event.server >= _farm.size())
            fatal("FaultDriver: fault event names server " +
                  std::to_string(_event.server) + " in a farm of " +
                  std::to_string(_farm.size()));
        if (_event.down)
            _farm.failServer(_event.server, _event.time);
        else
            _farm.restoreServer(_event.server, _event.time);
        _hasEvent = _source->next(_event);
    }

    void retryFront()
    {
        RetryEntry entry = _queue.front();
        _queue.pop_front();
        ++_stats.retries;
        entry.job.arrival = entry.due;
        const std::size_t pick = _farm.tryOfferJob(entry.job);
        if (pick != ServerFarm::noServer) {
            ++_stats.admitted;
            if (_onAdmit)
                _onAdmit(entry.job, pick);
            return;
        }
        ++entry.attempts;
        scheduleEntry(std::move(entry));
    }

    void schedule(const Job &job, double now, double deadline)
    {
        RetryEntry entry;
        entry.job = job;
        entry.due = now;
        entry.deadline = deadline;
        entry.attempts = 1;
        scheduleEntry(std::move(entry));
    }

    void scheduleEntry(RetryEntry entry)
    {
        const double delay = failoverBackoffDelay(
            _backoff, entry.attempts, _backoffCap);
        entry.due += delay;
        if (entry.due > entry.deadline) {
            ++_stats.dropped; // Recorded SLO loss.
            return;
        }
        // Keep the queue sorted by due time (stable for ties), so
        // retries replay in deterministic order.
        auto at = std::upper_bound(_queue.begin(), _queue.end(),
                                   entry.due,
                                   [](double due, const RetryEntry &e) {
                                       return due < e.due;
                                   });
        _queue.insert(at, std::move(entry));
    }

    ServerFarm &_farm;
    bool _active;
    double _backoff;
    double _backoffCap;
    double _dropTimeout;
    std::unique_ptr<FaultSource> _source;
    FaultEvent _event;
    bool _hasEvent = false;
    std::deque<RetryEntry> _queue;
    FarmFaultStats _stats;
    std::function<void(const Job &, std::size_t)> _onAdmit;
};

/**
 * Rebuild a logged job history as an evaluation log whose offered load
 * equals the predicted per-server utilization: gaps between consecutive
 * logged arrivals keep their shape and are scaled uniformly so
 * demand / span lands on the (clamped) prediction. Returns an empty log
 * when the history is too thin or degenerate to characterize (fewer
 * than two jobs, zero span, or zero demand).
 */
std::vector<Job>
rescaleHistoryToPrediction(const std::vector<Job> &history,
                           double predicted)
{
    std::vector<Job> log;
    if (history.size() < 2)
        return log;
    const double span = history.back().arrival - history.front().arrival;
    double demand = 0.0;
    for (std::size_t i = 1; i < history.size(); ++i)
        demand += history[i].size;
    if (span <= 0.0 || demand <= 0.0)
        return log;

    const double measured = demand / span;
    const double target = std::clamp(predicted, 0.01, 0.99);
    const double gap_scale = measured / target;
    log.reserve(history.size());
    // The first job is re-anchored one mean (rescaled) gap in.
    double clock =
        span / static_cast<double>(history.size() - 1) * gap_scale;
    log.push_back({clock, history.front().size});
    for (std::size_t i = 1; i < history.size(); ++i) {
        clock += (history[i].arrival - history[i - 1].arrival) *
                 gap_scale;
        log.push_back({clock, history[i].size});
    }
    return log;
}

/**
 * Close one epoch of a rolling decision log: the jobs logged since the
 * previous close become the newest epoch, whole epochs beyond the last
 * `epochs` are dropped, and then the oldest jobs beyond `cap` (Section
 * 5.2.1 logs the previous epochs; the cap bounds the decision cost).
 * `counts` holds the jobs each kept epoch contributes, oldest first.
 */
void
closeLogEpoch(std::vector<Job> &history, std::vector<std::size_t> &counts,
              std::size_t epochs, std::size_t cap)
{
    std::size_t kept = 0;
    for (std::size_t count : counts)
        kept += count;
    counts.push_back(history.size() - kept);
    std::size_t drop = 0;
    while (counts.size() > epochs) {
        drop += counts.front();
        counts.erase(counts.begin());
    }
    if (history.size() - drop > cap) {
        // Deduct the capped jobs from the oldest epochs' counts so the
        // counts keep describing the log.
        std::size_t excess = history.size() - drop - cap;
        drop += excess;
        while (excess > 0) {
            const std::size_t take = std::min(excess, counts.front());
            counts.front() -= take;
            excess -= take;
            if (counts.front() == 0)
                counts.erase(counts.begin());
        }
    }
    history.erase(history.begin(),
                  history.begin() + static_cast<std::ptrdiff_t>(drop));
}

/** Whether a harvested window (an epoch's, or a server's whole-run
 * total) met the QoS budget. An empty window never qualifies: it has
 * no response statistic, so it neither arms the over-provisioning
 * boost nor counts as budget-compliant in reports. */
bool
windowWithinBudget(const QosConstraint &qos, const SimStats &stats)
{
    return stats.completions > 0 && qos.satisfiedBy(stats);
}

/** Raise a decided policy's frequency by (1 + α) when the previous
 * epoch met its budget (Section 5.2.3). Returns whether it boosted. */
bool
applyOverProvision(Policy &policy, double alpha, bool last_within)
{
    if (alpha <= 0.0 || !last_within)
        return false;
    const double boosted =
        std::min(1.0, policy.frequency * (1.0 + alpha));
    if (boosted <= policy.frequency)
        return false;
    policy.frequency = boosted;
    return true;
}

/** Run-time state of one decider and the servers it covers: every
 * server under per-server control, the whole farm under farm-wide
 * control. Group g is fed by the jobs routed to server g. */
struct DecisionGroup
{
    std::vector<Job> history;     ///< Rolling log (log-based deciders).
    std::vector<std::size_t> historyCounts; ///< Its jobs per kept epoch.
    std::uint64_t logged = 0;     ///< Jobs admitted to the feeding server.
    std::uint64_t loggedMark = 0; ///< `logged` at the last decision.
    double downMark = 0.0;        ///< Its downtime at the last decision.
    double demand = 0.0;          ///< Open epoch's offered demand, s.
    std::uint64_t jobs = 0;       ///< Open epoch's offered jobs.
    EpochObservation observation; ///< Scalars of the last closed epoch.
    bool lastWithin = false;      ///< Last closed epoch met the budget.
    bool starved = false;         ///< Outage-starved at this decision.
    bool decided = false;         ///< decide() ran at this decision.
    PolicyDecision decision;      ///< Its result.
    EpochReport report;           ///< The open epoch (stats stay empty).
};

} // namespace

double
failoverBackoffDelay(double backoff, unsigned attempts, double cap)
{
    fatalIf(!(backoff > 0.0) || !std::isfinite(backoff),
            "failoverBackoffDelay: backoff must be positive and "
            "finite seconds");
    fatalIf(attempts == 0, "failoverBackoffDelay: attempts start at 1");
    fatalIf(!(cap >= backoff) || !std::isfinite(cap),
            "failoverBackoffDelay: cap must be finite and >= backoff");
    // Attempt k waits backoff * 2^(k-1), no further than the cap.
    // Saturate before scaling: past 2^1074 even the smallest positive
    // double lands beyond any finite cap, and ldexp toward infinity
    // must never reach the min() as an overflow artifact.
    const unsigned shift = attempts - 1;
    if (shift > 1074)
        return cap;
    const double delay = std::ldexp(backoff, static_cast<int>(shift));
    return std::min(delay, cap);
}

double
FarmFaultStats::availability(std::size_t farm_size) const
{
    const double server_seconds =
        elapsedSeconds * static_cast<double>(farm_size);
    if (server_seconds <= 0.0)
        return 1.0;
    return std::clamp(1.0 - downSeconds / server_seconds, 0.0, 1.0);
}

double
FarmFaultStats::goodput() const
{
    if (offered == 0)
        return 1.0;
    return static_cast<double>(completed) /
           static_cast<double>(offered);
}

void
validateFarmConfig(const FarmRuntimeConfig &config, const WorkloadSpec &spec)
{
    const RuntimeConfig &per_server = config.perServer;
    fatalIf(config.farmSize == 0, "FarmRuntime: farm size must be >= 1");
    fatalIf(per_server.epochMinutes == 0,
            "FarmRuntime: epochMinutes must be positive");
    fatalIf(!(per_server.overProvision >= 0.0) ||
                !std::isfinite(per_server.overProvision),
            "FarmRuntime: overProvision must be finite and >= 0");
    fatalIf(per_server.evalLogCap < 2,
            "FarmRuntime: evalLogCap must be at least 2");
    fatalIf(per_server.historyEpochs == 0,
            "FarmRuntime: historyEpochs must be positive");
    // The candidate space and every policy the loop may apply. A
    // frequency outside (0, 1], NaN included, would otherwise stop the
    // run mid-way or run it at NaN power. Plans check their own stages.
    const auto check_frequency = [](double f, const std::string &what) {
        if (!(f > 0.0 && f <= 1.0))
            fatal("FarmRuntime: " + what + " frequency must be in (0, 1]");
    };
    fatalIf(per_server.space.plans.empty() ||
                per_server.space.frequencies.empty(),
            "FarmRuntime: the policy space needs at least one plan and "
            "one frequency");
    for (double f : per_server.space.frequencies)
        check_frequency(f, "policy-space");
    check_frequency(per_server.initialPolicy.frequency, "initialPolicy");
    if (per_server.fixedPolicy)
        check_frequency(per_server.fixedPolicy->frequency, "fixedPolicy");
    // ρ_b and the metric: the factory that builds the run's budget.
    QosConstraint::fromBaseline(per_server.qosMetric, per_server.rhoB,
                                spec.serviceMean);
    if (per_server.controller)
        per_server.controller->validate();
    fatalIf(config.control != "farm-wide" &&
                config.control != "per-server" &&
                config.control != "distributed",
            "FarmRuntime: unknown control mode '" + config.control +
                "' (use \"farm-wide\", \"per-server\", or "
                "\"distributed\")");
    if (config.control == "distributed") {
        // The rate scaler decides alone, moving only the frequency of
        // the initial policy: a rule it would drop is refused.
        fatalIf(per_server.controller.has_value(),
                "FarmRuntime: control = \"distributed\" decides with "
                "the rate scaler, so the \"poet\" controller would be "
                "dropped");
        fatalIf(per_server.fixedPolicy.has_value(),
                "FarmRuntime: control = \"distributed\" decides with "
                "the rate scaler, so the fixed (race-to-halt) policy "
                "would be dropped");
        const auto &plans = per_server.space.plans;
        fatalIf(std::find(plans.begin(), plans.end(),
                          per_server.initialPolicy.plan) == plans.end(),
                "FarmRuntime: control = \"distributed\" runs the "
                "initial policy's sleep plan, which is not in the "
                "policy space, so the strategy's plan restriction would "
                "be dropped");
    }
    // Throwaway components check their own knobs: the dispatcher its
    // name (the registry lists the alternatives) and packing spill
    // threshold; the fault source its name, MTBF/MTTR ranges and every
    // scripted event. "none" skips the fault plane, so fault-free
    // configs never pay for — or trip over — fault validation.
    makeDispatcher(config.dispatcher, config.dispatchSeed,
                   config.packingSpillBacklog);
    if (config.faults != "none") {
        makeFaultSource(config.faults, faultConfigOf(config));
        fatalIf(!(config.retryBackoff > 0.0) ||
                    !std::isfinite(config.retryBackoff),
                "FarmRuntime: retryBackoff must be positive and "
                "finite seconds");
        fatalIf(!(config.retryBackoffCap > 0.0) ||
                    !std::isfinite(config.retryBackoffCap),
                "FarmRuntime: retryBackoffCap must be positive and "
                "finite seconds");
        fatalIf(!(config.dropTimeout > 0.0) ||
                    !std::isfinite(config.dropTimeout),
                "FarmRuntime: dropTimeout must be positive and finite "
                "seconds");
        fatalIf(!(config.recoverySeconds >= 0.0) ||
                    !std::isfinite(config.recoverySeconds),
                "FarmRuntime: recoverySeconds must be finite and >= 0");
        // Only fault-injected runs fall back to the degraded policy.
        check_frequency(config.degradedPolicy.frequency, "degradedPolicy");
    }
    if (config.platforms.empty())
        return;
    fatalIf(config.platforms.size() != config.farmSize,
            "FarmRuntime: platforms lists " +
                std::to_string(config.platforms.size()) +
                " entries for a farm of " +
                std::to_string(config.farmSize) +
                " servers (give one platform name per server, or "
                "none for a homogeneous farm)");
    bool heterogeneous = false;
    for (const std::string &name : config.platforms) {
        platformRegistry().get(name);
        heterogeneous = heterogeneous || name != config.platforms.front();
    }
    fatalIf(heterogeneous && config.control == "farm-wide",
            "FarmRuntime: a heterogeneous platform mix needs "
            "control = \"per-server\" or \"distributed\" (one "
            "farm-wide decision cannot bind to multiple power "
            "models)");
}

FarmRuntime::FarmRuntime(const PlatformModel &platform,
                         const WorkloadSpec &spec,
                         FarmRuntimeConfig config)
    : _platform(platform), _spec(spec), _config(std::move(config)),
      _qos(QosConstraint::fromBaseline(_config.perServer.qosMetric,
                                       _config.perServer.rhoB,
                                       spec.serviceMean))
{
    validateFarmConfig(_config, spec);

    // Resolve the per-server platform mix. The resolved vector is sized
    // here once and never mutated again: the per-server managers hold
    // references into it.
    _resolvedPlatforms.reserve(_config.platforms.size());
    for (const std::string &name : _config.platforms)
        _resolvedPlatforms.push_back(platformByName(name));
    _serverPlatforms.reserve(_config.farmSize);
    for (std::size_t i = 0; i < _config.farmSize; ++i)
        _serverPlatforms.push_back(_resolvedPlatforms.empty()
                                       ? &_platform
                                       : &_resolvedPlatforms[i]);

    if (!_config.perServer.fixedPolicy) {
        // Any decision rule plugs in per slot: the search manager (with
        // its eval engine), the O(1) feedback controller, or the
        // distributed rate scaler — one shared decider under farm-wide
        // control, one autonomous decider per back-end otherwise.
        const auto make_decider =
            [this](const PlatformModel &server_platform)
            -> std::unique_ptr<EpochDecider> {
            if (_config.control == "distributed") {
                // Zero-communication local rate scaling (Rutten-style,
                // farm/rate_scaler.hh): every server tracks its own
                // offered load; the target anchors at the QoS design
                // point ρ_b, and the sleep plan is pinned to the
                // initial policy's.
                return std::make_unique<DistributedRateScaler>(
                    _config.perServer.space.frequencies, _spec.scaling,
                    _config.perServer.initialPolicy,
                    _config.perServer.rhoB);
            }
            if (_config.perServer.controller) {
                return std::make_unique<ControllerManager>(
                    server_platform, _spec.scaling,
                    _config.perServer.space, _qos,
                    *_config.perServer.controller,
                    _config.perServer.initialPolicy);
            }
            auto manager = std::make_unique<PolicyManager>(
                server_platform, _spec.scaling,
                _config.perServer.space, _qos,
                _config.perServer.searchThreads);
            _searchManagers.push_back(manager.get());
            return manager;
        };
        const std::size_t deciders =
            perServerControl() ? _config.farmSize : 1;
        _deciders.reserve(deciders);
        for (std::size_t i = 0; i < deciders; ++i)
            _deciders.push_back(make_decider(*_serverPlatforms[i]));
    }
}

const PolicyManager *
FarmRuntime::manager() const
{
    return perServerControl() || _searchManagers.empty()
               ? nullptr
               : _searchManagers.front();
}

bool
FarmRuntime::perServerControl() const
{
    // "distributed" has the per-server topology: autonomous deciders
    // fed by local observations, one per back-end. The difference is
    // the decision rule, not the control topology.
    return _config.control == "per-server" ||
           _config.control == "distributed";
}

const PolicyManager &
FarmRuntime::serverManager(std::size_t server) const
{
    fatalIf(!perServerControl() || _searchManagers.empty(),
            "FarmRuntime::serverManager: no per-server search "
            "managers (needs control = \"per-server\", no fixed "
            "policy, and a search strategy)");
    fatalIf(server >= _searchManagers.size(),
            "FarmRuntime::serverManager: server index out of range");
    return *_searchManagers[server];
}

const PlatformModel &
FarmRuntime::serverPlatform(std::size_t server) const
{
    fatalIf(server >= _serverPlatforms.size(),
            "FarmRuntime::serverPlatform: server index out of range");
    return *_serverPlatforms[server];
}

FarmRuntimeResult
FarmRuntime::run(const std::vector<Job> &jobs,
                 const UtilizationTrace &trace,
                 UtilizationPredictor &predictor) const
{
    VectorSource source = VectorSource::view(jobs);
    return run(source, trace, predictor);
}

FarmRuntimeResult
FarmRuntime::run(JobSource &source, const UtilizationTrace &trace,
                 UtilizationPredictor &predictor) const
{
    fatalIf(trace.empty(), "FarmRuntime::run: empty trace");
    // Decision state starts fresh, so a second run() repeats the first;
    // only the eval engines' plan caches carry over.
    for (const auto &decider : _deciders)
        decider->reset();
    const std::size_t minutes = trace.size();
    const unsigned epoch_len = _config.perServer.epochMinutes;
    const std::size_t size = _config.farmSize;
    const double farm_size = static_cast<double>(size);
    const bool fixed = static_cast<bool>(_config.perServer.fixedPolicy);

    // Farm-wide control is per-server control with one shared decider:
    // group 0 covers every server. Otherwise each server is its own
    // group. Either way group g is fed by server g's routed jobs.
    const bool shared = !perServerControl();
    const double covered = shared ? farm_size : 1.0;
    std::vector<DecisionGroup> groups(shared ? 1 : size);
    for (DecisionGroup &group : groups)
        group.report.policy = _config.perServer.initialPolicy;

    ServerFarm farm(_serverPlatforms, _spec.scaling,
                    _config.perServer.initialPolicy,
                    makeDispatcher(_config.dispatcher,
                                   _config.dispatchSeed,
                                   _config.packingSpillBacklog));

    FarmRuntimeResult result;
    result.qos = _qos;
    result.control = _config.control;
    result.servers.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
        result.servers[i].server = i;
        result.servers[i].platform = _serverPlatforms[i]->name();
    }

    farm.setRecoverySeconds(_config.recoverySeconds);
    farm.setRecordTail(_config.tailHistograms);
    const std::size_t shard_lanes = resolveShards(_config.shards, size);
    std::unique_ptr<ThreadPool> shard_pool;
    if (shard_lanes > 1) {
        shard_pool = std::make_unique<ThreadPool>(shard_lanes);
        farm.setShardPool(shard_pool.get());
    }
    FaultDriver faults(farm, _config);

    // Only log-based deciders pay for job logs; the O(1) deciders read
    // the scalar observations instead.
    const bool needs_log = !fixed && _deciders.front()->needsLog();
    const bool record_decisions = _config.perServer.recordDecisionTime;

    // The decision pool lives for one run, not the runtime's lifetime:
    // idle FarmRuntimes (e.g. queued behind an ExperimentRunner sweep)
    // then hold no worker threads. A shared decider gets one lane, which
    // runs inline.
    std::unique_ptr<ThreadPool> decision_pool;
    if (!fixed) {
        const std::size_t lanes =
            _config.decisionThreads == 0
                ? std::min(groups.size(), ThreadPool::hardwareLanes())
                : std::min(_config.decisionThreads, groups.size());
        decision_pool = std::make_unique<ThreadPool>(lanes);
    }

    // A job admitted to a group's feeding server joins that group's
    // rolling log — the literal arrival process of that back-end (a
    // deterministic every-Nth pick would smooth the gaps toward Erlang
    // shape and bias decisions optimistic). Failover re-admissions join
    // at their re-dispatch time. Fixed-policy runs never decide, so
    // they keep no log at all.
    auto logAdmission = [&](const Job &job, std::size_t server) {
        if (fixed || server >= groups.size())
            return;
        DecisionGroup &group = groups[server];
        if (needs_log)
            group.history.push_back(job);
        ++group.logged;
        if (!shared) {
            group.demand += job.size;
            ++group.jobs;
        }
    };
    faults.setAdmitHook(logAdmission);

    std::uint64_t cum_completed = 0;
    std::uint64_t degraded_epochs = 0;
    double degraded_seconds = 0.0;
    // The open epoch's offered demand (s) and jobs, folded per minute.
    // A shared decider observes these farm aggregates.
    double offered_demand = 0.0;
    std::uint64_t offered_jobs = 0;

    // Close the open epoch: attribute per-server windows, record each
    // group's outcome and observation, charge degraded server-seconds
    // by the epoch's actual span, and snapshot the availability plane.
    // A shared group reports once, in the farm-level stream only.
    auto closeEpoch = [&](std::vector<SimStats> windows, double now) {
        for (std::size_t i = 0; i < size; ++i)
            result.servers[i].total.merge(windows[i]);
        // Arrivals stop at the trace end, so the last epoch's measured
        // load is taken over its arrival span, not the drained horizon.
        const double arrival_span =
            std::min(now, trace.duration()) - groups.front().report.startTime;
        EpochReport farm_epoch = groups.front().report;
        farm_epoch.stats = ServerFarm::mergeWindows(windows);
        farm_epoch.measuredUtilization =
            offered_demand / (arrival_span * farm_size);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            DecisionGroup &group = groups[g];
            const SimStats &window = shared ? farm_epoch.stats : windows[g];
            group.lastWithin = windowWithinBudget(_qos, window);
            if (needs_log)
                closeLogEpoch(group.history, group.historyCounts,
                              _config.perServer.historyEpochs,
                              _config.perServer.evalLogCap);
            if (group.report.degraded) {
                farm_epoch.degraded = true;
                degraded_epochs += shared ? size : 1;
                degraded_seconds +=
                    (now - group.report.startTime) * covered;
            }

            const double demand = shared ? offered_demand : group.demand;
            const std::uint64_t jobs = shared ? offered_jobs : group.jobs;
            EpochObservation &observation = group.observation;
            observation.measuredUtilization =
                demand / (arrival_span * covered);
            observation.hasMeasurement = window.completions > 0;
            observation.measuredQos = observation.hasMeasurement
                                          ? _qos.measuredValue(window)
                                          : 0.0;
            observation.meanJobSize =
                jobs > 0 ? demand / static_cast<double>(jobs) : 0.0;
            observation.applied = group.report.policy;
            group.report.measuredUtilization =
                observation.measuredUtilization;
            group.demand = 0.0;
            group.jobs = 0;

            // A shared decision's stream is the farm's own.
            if (!shared) {
                result.servers[g].epochs.push_back(group.report);
                result.servers[g].epochs.back().stats =
                    std::move(windows[g]);
            }
        }
        result.epochs.push_back(std::move(farm_epoch));
        offered_demand = 0.0;
        offered_jobs = 0;

        cum_completed += result.epochs.back().stats.completions;
        FarmFaultStats snap = faults.stats();
        snap.completed = cum_completed;
        snap.inFlight = snap.admitted - snap.completed + faults.queued();
        snap.downSeconds = farm.totalDownSeconds();
        snap.degradedSeconds = degraded_seconds;
        snap.degradedEpochs = degraded_epochs;
        snap.elapsedSeconds = now;
        result.epochFaults.push_back(snap);
    };

    Job pending;
    bool has_pending = source.next(pending);

    for (std::size_t minute = 0; minute < minutes; ++minute) {
        const double t = static_cast<double>(minute) * secondsPerMinute;

        if (minute % epoch_len == 0) {
            farm.advanceTo(t);
            if (minute > 0)
                closeEpoch(farm.harvestWindows(), t);

            const std::size_t epoch_index = result.epochs.size();
            const double predicted =
                std::clamp(predictor.predict(minute), 0.0, 1.0);

            // Outage starvation: the feeding server lost time to an
            // outage since the group's previous decision and logged no
            // new jobs. Its rolling history then holds only pre-outage
            // jobs (and its local load reads zero), which must not be
            // dressed up as a fresh decision. A merely warming-up log,
            // with no downtime, is not starved.
            if (faults.active()) {
                for (std::size_t g = 0; g < groups.size(); ++g) {
                    DecisionGroup &group = groups[g];
                    const double down = farm.downSeconds(g);
                    group.starved = down > group.downMark &&
                                    group.logged == group.loggedMark;
                    group.downMark = down;
                    group.loggedMark = group.logged;
                }
            }

            // Fan the decisions out across the pool. Each lane touches
            // only its own group (log, observation, decider), and the
            // reduction below runs in group order, so any pool width is
            // bit-identical to serial. A starved group is not asked.
            double fanout_micros = 0.0;
            if (!fixed) {
                const double fanout_start =
                    record_decisions ? monotonicMicros() : 0.0;
                decision_pool->parallelFor(
                    groups.size(), [&](std::size_t g, std::size_t) {
                        DecisionGroup &group = groups[g];
                        group.decided = false;
                        if (group.starved)
                            return;
                        // Rescale the log (the last historyEpochs
                        // epochs, trimmed at close) to the predicted
                        // per-server load. The O(1) deciders need only
                        // a closed epoch.
                        std::vector<Job> log;
                        if (needs_log) {
                            log = rescaleHistoryToPrediction(
                                group.history, predicted);
                            if (log.empty())
                                return;
                        } else if (minute == 0) {
                            return;
                        }
                        group.observation.predictedUtilization =
                            predicted;
                        group.decision =
                            _deciders[g]->decide(group.observation, log);
                        group.decided = true;
                    });
                if (record_decisions)
                    fanout_micros = monotonicMicros() - fanout_start;
            }

            for (std::size_t g = 0; g < groups.size(); ++g) {
                DecisionGroup &group = groups[g];
                Policy policy = group.report.policy; // Held if undecided.
                EpochReport &epoch = group.report;
                epoch = EpochReport{};
                epoch.index = epoch_index;
                epoch.startTime = t;
                epoch.predictedUtilization = predicted;
                // Report 0 (the farm-level stream copies it) carries the
                // whole fan-out's wall time: the farm's per-epoch
                // decision cost.
                if (g == 0)
                    epoch.decisionMicros = fanout_micros;
                if (fixed) {
                    policy = *_config.perServer.fixedPolicy;
                    epoch.decided = true;
                    epoch.feasible = true;
                } else if (group.starved ||
                           (faults.active() && group.decided &&
                            !group.decision.feasible)) {
                    // Degraded mode (docs/FAULTS.md): a starved or, under
                    // faults, infeasible decision runs the safe fixed
                    // policy — unboosted, and not feasible.
                    policy = _config.degradedPolicy;
                    epoch.decided = true;
                    epoch.degraded = true;
                } else if (group.decided) {
                    policy = group.decision.policy;
                    epoch.decided = true;
                    epoch.feasible = group.decision.feasible;
                    epoch.boosted = applyOverProvision(
                        policy, _config.perServer.overProvision,
                        group.lastWithin);
                }
                epoch.policy = policy;
                if (shared)
                    farm.setPolicy(policy, t);
                else
                    farm.setPolicy(g, policy, t);
            }
        }

        const double minute_end = t + secondsPerMinute;
        double minute_demand = 0.0;
        std::uint64_t minute_jobs = 0;
        while (has_pending && pending.arrival < minute_end) {
            faults.catchUp(pending.arrival);
            // A farm-wide outage parks the job in the failover queue;
            // it joins a log via the admit hook if a retry lands.
            logAdmission(pending, faults.offer(pending));
            minute_demand += pending.size;
            ++minute_jobs;
            has_pending = source.next(pending);
        }
        offered_demand += minute_demand;
        offered_jobs += minute_jobs;
        faults.catchUp(minute_end);
        farm.advanceTo(minute_end);

        const double observed = std::clamp(
            minute_demand / (secondsPerMinute * farm_size), 0.0, 1.0);
        predictor.observe(minute, observed);
    }

    // Let the failover queue play out (each entry is admitted or
    // dropped), then run every admitted job to completion.
    faults.drain();
    const double horizon =
        std::max(trace.duration(), farm.nextFreeTime());
    faults.catchUp(horizon);
    farm.advanceTo(horizon);
    closeEpoch(farm.harvestWindows(), horizon);

    for (const EpochReport &report : result.epochs)
        result.total.merge(report.stats);
    result.faults = result.epochFaults.back();
    result.jobsPerServer = farm.jobsPerServer();
    for (std::size_t i = 0; i < size; ++i) {
        result.servers[i].jobsRouted = result.jobsPerServer[i];
        // A server that completed nothing has no response statistic to
        // meet the budget with — report it as not-within rather than
        // vacuously compliant.
        result.servers[i].withinBudget =
            windowWithinBudget(_qos, result.servers[i].total);
    }
    return result;
}

FarmRuntimeConfig
singleServerFarm(RuntimeConfig config)
{
    FarmRuntimeConfig farm;
    farm.farmSize = 1;
    farm.dispatcher = "round-robin";
    farm.control = "farm-wide";
    farm.decisionThreads = 1;
    farm.perServer = std::move(config);
    return farm;
}

SleepScaleRuntime::SleepScaleRuntime(const PlatformModel &platform,
                                     const WorkloadSpec &spec,
                                     RuntimeConfig config)
    : _farm(platform, spec, singleServerFarm(std::move(config)))
{
}

RuntimeResult
SleepScaleRuntime::run(JobSource &source, const UtilizationTrace &trace,
                       UtilizationPredictor &predictor) const
{
    FarmRuntimeResult farm = _farm.run(source, trace, predictor);
    RuntimeResult result;
    result.epochs = std::move(farm.epochs);
    result.total = std::move(farm.total);
    result.qos = farm.qos;
    return result;
}

RuntimeResult
SleepScaleRuntime::run(const std::vector<Job> &jobs,
                       const UtilizationTrace &trace,
                       UtilizationPredictor &predictor) const
{
    VectorSource source = VectorSource::view(jobs);
    return run(source, trace, predictor);
}

} // namespace sleepscale
