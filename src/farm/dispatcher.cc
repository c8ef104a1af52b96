#include "farm/dispatcher.hh"

#include <limits>

#include "util/error.hh"

namespace sleepscale {

namespace {

void
requireServers(const FarmView &farm)
{
    fatalIf(farm.count() == 0, "Dispatcher: farm has no servers");
}

/** FarmView over a hand-built snapshot; every query is a linear scan.
 * An entry is idle when its backlog is 0 and busy when it is above. */
class SnapshotView final : public FarmView
{
  public:
    explicit SnapshotView(const std::vector<ServerSnapshot> &servers)
        : _servers(servers)
    {
    }

    std::size_t count() const override { return _servers.size(); }

    double backlog(std::size_t position) const override
    {
        return _servers[position].backlog;
    }

    std::size_t lowestIdle() const override
    {
        for (std::size_t k = 0; k < _servers.size(); ++k) {
            if (_servers[k].backlog == 0.0)
                return k;
        }
        return _servers.size();
    }

    std::size_t leastBacklogBusy() const override
    {
        std::size_t best = _servers.size();
        double best_backlog = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < _servers.size(); ++k) {
            const double backlog = _servers[k].backlog;
            if (backlog > 0.0 && backlog < best_backlog) {
                best_backlog = backlog;
                best = k;
            }
        }
        return best;
    }

  private:
    const std::vector<ServerSnapshot> &_servers;
};

} // namespace

std::size_t
Dispatcher::route(const Job &job, const std::vector<ServerSnapshot> &servers)
{
    return route(job, SnapshotView(servers));
}

RandomDispatcher::RandomDispatcher(std::uint64_t seed)
    : _rng(seed)
{
}

std::size_t
RandomDispatcher::route(const Job &job, const FarmView &farm)
{
    (void)job;
    requireServers(farm);
    return _rng.uniformInt(farm.count());
}

std::size_t
RoundRobinDispatcher::route(const Job &job, const FarmView &farm)
{
    (void)job;
    requireServers(farm);
    const std::size_t pick = _next % farm.count();
    ++_next;
    return pick;
}

std::size_t
JsqDispatcher::route(const Job &job, const FarmView &farm)
{
    (void)job;
    requireServers(farm);
    // An idle server has backlog exactly 0.0 and every busy server's
    // backlog is > 0, so a strict-< scan over the backlogs lands on the
    // lowest idle position when one exists, and otherwise on the busy
    // position whose queue empties first.
    const std::size_t idle = farm.lowestIdle();
    if (idle < farm.count())
        return idle;
    const std::size_t busy = farm.leastBacklogBusy();
    return busy < farm.count() ? busy : 0;
}

PackingDispatcher::PackingDispatcher(double spill_backlog)
    : _spillBacklog(spill_backlog)
{
    fatalIf(!(spill_backlog > 0.0),
            "PackingDispatcher: spill backlog must be positive");
}

std::size_t
PackingDispatcher::route(const Job &job, const FarmView &farm)
{
    (void)job;
    requireServers(farm);
    const std::size_t busy = farm.leastBacklogBusy();
    if (busy < farm.count() && farm.backlog(busy) < _spillBacklog)
        return busy;
    const std::size_t idle = farm.lowestIdle();
    if (idle < farm.count())
        return idle;
    return busy < farm.count() ? busy : 0;
}

std::unique_ptr<Dispatcher>
makeDispatcher(const std::string &name, std::uint64_t seed,
               double spill_backlog)
{
    DispatcherContext ctx;
    ctx.seed = seed;
    ctx.spillBacklog = spill_backlog;
    return dispatcherRegistry().get(name)(ctx);
}

Registry<DispatcherFactory> &
dispatcherRegistry()
{
    static Registry<DispatcherFactory> registry = [] {
        Registry<DispatcherFactory> r("dispatcher");
        r.add("random", [](const DispatcherContext &ctx) {
            return std::make_unique<RandomDispatcher>(ctx.seed);
        });
        r.add("round-robin", [](const DispatcherContext &) {
            return std::make_unique<RoundRobinDispatcher>();
        });
        r.add("JSQ", [](const DispatcherContext &) {
            return std::make_unique<JsqDispatcher>();
        });
        r.add("packing", [](const DispatcherContext &ctx) {
            return std::make_unique<PackingDispatcher>(ctx.spillBacklog);
        });
        return r;
    }();
    return registry;
}

} // namespace sleepscale
