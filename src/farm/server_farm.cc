#include "farm/server_farm.hh"

#include <algorithm>
#include <limits>
#include <ranges>

#include "util/error.hh"
#include "util/thread_pool.hh"

namespace sleepscale {

namespace {

constexpr double never = std::numeric_limits<double>::infinity();

} // namespace

std::string
toString(ServerLifecycle state)
{
    switch (state) {
      case ServerLifecycle::Up:
        return "up";
      case ServerLifecycle::Draining:
        return "draining";
      case ServerLifecycle::Down:
        return "down";
      case ServerLifecycle::Recovering:
        return "recovering";
    }
    panic("toString: unknown ServerLifecycle");
}

/**
 * FarmView over the servers accepting work. Positions skip the sorted
 * unavailable list, so with an empty list a position is the server
 * index. Point queries hit the servers; aggregate queries hit the
 * event-time indexes, which hold accepting servers only.
 */
class ServerFarm::AcceptingView final : public FarmView
{
  public:
    AcceptingView(ServerFarm &farm, double now) : _farm(farm), _now(now) {}

    std::size_t count() const override
    {
        return _farm.size() - _farm._unavailable.size();
    }

    double backlog(std::size_t position) const override
    {
        return _farm._servers[server(position)].backlog(_now);
    }

    std::size_t lowestIdle() const override
    {
        const IdleSet &idle = _farm._idleSet;
        return idle.empty() ? count() : position(idle.lowest());
    }

    std::size_t leastBacklogBusy() const override
    {
        const std::size_t busy = _farm._calendar.earliestBusy(_farm._nextFree);
        return busy == BusyCalendar::none ? count() : position(busy);
    }

    /** Server at a position: the position plus the listed servers below
     * it. The j-th listed server has list[j] - j accepting servers below
     * it, a count non-decreasing in j. */
    std::size_t server(std::size_t position) const
    {
        const std::vector<std::size_t> &list = _farm._unavailable;
        const auto ranks = std::views::iota(std::size_t{0}, list.size());
        const auto below = std::ranges::partition_point(
            ranks, [&](std::size_t j) { return list[j] - j <= position; });
        return position + static_cast<std::size_t>(below - ranks.begin());
    }

  private:
    /** Position of an accepting server. */
    std::size_t position(std::size_t server) const
    {
        const std::vector<std::size_t> &list = _farm._unavailable;
        const auto below = std::lower_bound(list.begin(), list.end(), server);
        return server - static_cast<std::size_t>(below - list.begin());
    }

    ServerFarm &_farm; ///< Non-const: calendar lookups prune stale entries.
    double _now;
};

ServerFarm::ServerFarm(const PlatformModel &platform,
                       ServiceScaling scaling, const Policy &initial,
                       std::size_t size,
                       std::unique_ptr<Dispatcher> dispatcher)
    : _dispatcher(std::move(dispatcher))
{
    fatalIf(size == 0, "ServerFarm: need at least one server");
    fatalIf(!_dispatcher, "ServerFarm: dispatcher must not be null");
    _servers.reserve(size);
    for (std::size_t i = 0; i < size; ++i)
        _servers.emplace_back(platform, scaling, initial);
    _jobsRouted.assign(size, 0);
    _acceptFrom.assign(size, 0.0);
    _downSeconds.assign(size, 0.0);
    _downMark.assign(size, 0.0);
    _nextFree.assign(size, 0.0);
    _idleSet = IdleSet(size, /*full=*/true);
}

ServerFarm::ServerFarm(const std::vector<const PlatformModel *> &platforms,
                       ServiceScaling scaling, const Policy &initial,
                       std::unique_ptr<Dispatcher> dispatcher)
    : _dispatcher(std::move(dispatcher))
{
    fatalIf(platforms.empty(), "ServerFarm: need at least one server");
    fatalIf(!_dispatcher, "ServerFarm: dispatcher must not be null");
    _servers.reserve(platforms.size());
    for (const PlatformModel *platform : platforms) {
        fatalIf(platform == nullptr,
                "ServerFarm: per-server platform must not be null");
        _servers.emplace_back(*platform, scaling, initial);
    }
    _jobsRouted.assign(platforms.size(), 0);
    _acceptFrom.assign(platforms.size(), 0.0);
    _downSeconds.assign(platforms.size(), 0.0);
    _downMark.assign(platforms.size(), 0.0);
    _nextFree.assign(platforms.size(), 0.0);
    _idleSet = IdleSet(platforms.size(), /*full=*/true);
}

void
ServerFarm::setShardPool(ThreadPool *pool)
{
    _shardPool = pool;
}

void
ServerFarm::setRecordTail(bool record)
{
    for (ServerSim &server : _servers)
        server.setRecordTail(record);
}

template <typename Body>
void
ServerFarm::forEachServer(const Body &body)
{
    const std::size_t count = _servers.size();
    if (_shardPool == nullptr || _shardPool->size() <= 1 || count < 2) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    // Contiguous chunks keep per-lane work cache-friendly; a few chunks
    // per lane absorb load imbalance from the atomic index handout.
    const std::size_t chunks =
        std::min(count, _shardPool->size() * 4);
    const std::size_t stride = (count + chunks - 1) / chunks;
    _shardPool->parallelFor(chunks, [&](std::size_t chunk, std::size_t) {
        const std::size_t begin = chunk * stride;
        const std::size_t end = std::min(begin + stride, count);
        for (std::size_t i = begin; i < end; ++i)
            body(i);
    });
}

void
ServerFarm::processCalendarUpTo(double t)
{
    _calendar.drainDue(t, _nextFree,
                       [this](std::size_t server) {
                           _idleSet.insert(server);
                       });
}

void
ServerFarm::noteAdmission(std::size_t server)
{
    const double free = _servers[server].nextFreeTime();
    if (_nextFree[server] == free)
        return; // Zero-work admission: the busy period didn't extend.
    _idleSet.erase(server);
    _nextFree[server] = free;
    _calendar.push(free, server);
}

std::size_t
ServerFarm::tryOfferJob(const Job &job)
{
    fatalIf(job.arrival < _lastArrival,
            "ServerFarm::tryOfferJob: arrivals must be non-decreasing");
    _lastArrival = job.arrival;

    readmitUpTo(job.arrival);
    processCalendarUpTo(job.arrival);
    const AcceptingView view(*this, job.arrival);
    if (view.count() == 0)
        return noServer;
    const std::size_t position = _dispatcher->route(job, view);
    fatalIf(position >= view.count(),
            "ServerFarm: dispatcher chose a server out of range");
    const std::size_t pick = view.server(position);
    _servers[pick].offerJob(job);
    noteAdmission(pick);
    ++_jobsRouted[pick];
    return pick;
}

void
ServerFarm::advanceTo(double t)
{
    processCalendarUpTo(t);
    forEachServer([&](std::size_t i) { _servers[i].advanceTo(t); });
    for (const std::size_t server : _unavailable)
        accrueDown(server, t);
}

void
ServerFarm::accrueDown(std::size_t server, double t)
{
    // Unavailability spans from the crash to the end of the recovery
    // delay; accrue the part of it that advancing to t newly covers.
    const double until = std::min(t, _acceptFrom[server]);
    if (until > _downMark[server]) {
        _downSeconds[server] += until - _downMark[server];
        _downMark[server] = until;
    }
}

void
ServerFarm::readmitUpTo(double t)
{
    if (t < _readmitDue)
        return;
    _readmitDue = never;
    std::erase_if(_unavailable, [&](std::size_t server) {
        if (_acceptFrom[server] > t) {
            _readmitDue = std::min(_readmitDue, _acceptFrom[server]);
            return false;
        }
        accrueDown(server, t);
        _nextFree[server] = _servers[server].nextFreeTime();
        _calendar.push(_nextFree[server], server);
        return true;
    });
}

void
ServerFarm::failServer(std::size_t server, double t)
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::failServer: server index out of range");
    if (_acceptFrom[server] == never)
        return; // Already crashed; keep the original accounting mark.
    // A crash during a pending recovery window restarts the outage;
    // accrue the window covered so far first.
    accrueDown(server, t);
    _acceptFrom[server] = never;
    _downMark[server] = std::max(t, _downMark[server]);
    // Take it out of routing (a recovering server already is): off the
    // idle set, and a NaN next-free key makes its calendar entries
    // stale.
    const auto slot =
        std::lower_bound(_unavailable.begin(), _unavailable.end(), server);
    if (slot == _unavailable.end() || *slot != server) {
        _unavailable.insert(slot, server);
        _idleSet.erase(server);
        _nextFree[server] = std::numeric_limits<double>::quiet_NaN();
    }
}

void
ServerFarm::restoreServer(std::size_t server, double t)
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::restoreServer: server index out of range");
    if (_acceptFrom[server] != never)
        return; // Not crashed (Up or already recovering).
    accrueDown(server, t);
    _acceptFrom[server] = t + _recoverySeconds;
    _downMark[server] = std::max(_downMark[server], t);
    _readmitDue = std::min(_readmitDue, _acceptFrom[server]);
}

void
ServerFarm::setRecoverySeconds(double seconds)
{
    fatalIf(!(seconds >= 0.0),
            "ServerFarm::setRecoverySeconds: delay must be >= 0");
    _recoverySeconds = seconds;
}

bool
ServerFarm::accepting(std::size_t server, double now) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::accepting: server index out of range");
    return now >= _acceptFrom[server];
}

ServerLifecycle
ServerFarm::lifecycle(std::size_t server, double now) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::lifecycle: server index out of range");
    if (now >= _acceptFrom[server])
        return ServerLifecycle::Up;
    if (_acceptFrom[server] == never) {
        return _servers[server].backlog(now) > 0.0
                   ? ServerLifecycle::Draining
                   : ServerLifecycle::Down;
    }
    return ServerLifecycle::Recovering;
}

double
ServerFarm::downSeconds(std::size_t server) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::downSeconds: server index out of range");
    return _downSeconds[server];
}

double
ServerFarm::totalDownSeconds() const
{
    double total = 0.0;
    for (double seconds : _downSeconds)
        total += seconds;
    return total;
}

void
ServerFarm::setPolicy(const Policy &policy, double t)
{
    for (ServerSim &server : _servers)
        server.setPolicy(policy, t);
}

void
ServerFarm::setPolicy(std::size_t server, const Policy &policy, double t)
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::setPolicy: server index out of range");
    _servers[server].setPolicy(policy, t);
}

const Policy &
ServerFarm::policy(std::size_t server) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::policy: server index out of range");
    return _servers[server].policy();
}

std::vector<SimStats>
ServerFarm::harvestWindows()
{
    std::vector<SimStats> windows(_servers.size());
    // Each server's harvest touches only its own state; results are
    // stored by index and merged in index order, so sharding cannot
    // perturb the totals.
    forEachServer([&](std::size_t i) {
        windows[i] = _servers[i].harvestWindow();
    });
    return windows;
}

SimStats
ServerFarm::mergeWindows(const std::vector<SimStats> &windows)
{
    fatalIf(windows.empty(),
            "ServerFarm::mergeWindows: need at least one window");
    SimStats merged = windows.front();
    for (std::size_t i = 1; i < windows.size(); ++i) {
        const SimStats &window = windows[i];
        // Servers share the wall clock: add energies/residencies and
        // pool responses without extending the window span.
        merged.energy += window.energy;
        merged.busyTime += window.busyTime;
        merged.wakeTime += window.wakeTime;
        for (std::size_t s = 0; s < merged.idleResidency.size(); ++s) {
            merged.idleResidency[s] += window.idleResidency[s];
            merged.wakeups[s] += window.wakeups[s];
        }
        merged.arrivals += window.arrivals;
        merged.completions += window.completions;
        merged.response.merge(window.response);
        merged.responseHistogram.merge(window.responseHistogram);
        merged.windowStart = std::min(merged.windowStart,
                                      window.windowStart);
        merged.windowEnd = std::max(merged.windowEnd, window.windowEnd);
    }
    return merged;
}

const PlatformModel &
ServerFarm::platform(std::size_t server) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::platform: server index out of range");
    return _servers[server].platform();
}

double
ServerFarm::backlog(std::size_t server, double t) const
{
    fatalIf(server >= _servers.size(),
            "ServerFarm::backlog: server index out of range");
    return _servers[server].backlog(t);
}

double
ServerFarm::nextFreeTime() const
{
    double latest = 0.0;
    for (const ServerSim &server : _servers)
        latest = std::max(latest, server.nextFreeTime());
    return latest;
}

} // namespace sleepscale
