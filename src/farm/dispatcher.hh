/**
 * @file
 * Job dispatchers for multi-server farms (paper Section 7 future work).
 *
 * The paper conjectures SleepScale scales out by running per server,
 * with a front-end spreading jobs across the farm. The dispatcher
 * decides which server each arrival joins; the choice shapes both the
 * response-time distribution and — because it determines idle-period
 * lengths — how much sleep-state headroom each server sees.
 *
 * A dispatcher implements one method, route(job, FarmView), and the
 * farm calls it for every arrival, with or without servers down: the
 * view lists only the servers accepting work. The ServerSnapshot
 * overload adapts hand-built snapshots to the same method.
 */

#ifndef SLEEPSCALE_FARM_DISPATCHER_HH
#define SLEEPSCALE_FARM_DISPATCHER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/rng.hh"
#include "workload/job.hh"

namespace sleepscale {

/** One entry of a hand-built farm snapshot (Dispatcher::route() over a
 * vector). An entry is idle exactly when its backlog is 0. */
struct ServerSnapshot
{
    double backlog = 0.0;   ///< Committed seconds of work remaining.
};

/**
 * The servers accepting work at one arrival instant, in server-index
 * order. A dispatcher addresses them by position in [0, count()): with
 * every server up a position is the server index, and with servers
 * down (docs/FAULTS.md) the positions skip them. A server is idle
 * exactly when its backlog is 0.
 *
 * Point queries are answered lazily, and the two aggregate lookups the
 * built-in dispatchers need — lowest idle position, least-backlogged
 * busy position — run in O(log N) against the farm's event-time
 * indexes (farm/farm_calendar.hh), so routing never scans the farm.
 * Both aggregates break ties to the lowest position, exactly like a
 * strict-< scan over the positions.
 */
class FarmView
{
  public:
    virtual ~FarmView() = default;

    /** Number of positions: the servers accepting work. */
    virtual std::size_t count() const = 0;

    /** Committed seconds of work remaining at one position. */
    virtual double backlog(std::size_t position) const = 0;

    /** Lowest idle position, or count() when none is idle. */
    virtual std::size_t lowestIdle() const = 0;

    /** Busy position whose queue empties first (lowest position on
     * ties), or count() when no position is busy. */
    virtual std::size_t leastBacklogBusy() const = 0;
};

/** Strategy interface: pick a server position for each arrival. */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    /**
     * Route one job.
     *
     * @param job The arriving job.
     * @param farm The servers accepting work at the arrival instant.
     * @return Position of the chosen server (< farm.count()).
     */
    virtual std::size_t route(const Job &job, const FarmView &farm) = 0;

    /**
     * Route one job against a hand-built snapshot, one entry per
     * position: wraps the entries in a linear-scan FarmView and calls
     * the overload above. Kept for callers that build snapshots by hand
     * (tests, instrumenting wrappers); the farm never calls it.
     *
     * @param job The arriving job.
     * @param servers One entry per position.
     * @return Position of the chosen server (< servers.size()).
     */
    virtual std::size_t route(const Job &job,
                              const std::vector<ServerSnapshot> &servers);

    /** Name for reports. */
    virtual std::string name() const = 0;
};

/** Uniformly random routing (splits a Poisson stream into thinner
 * Poisson streams; the baseline in the server-farm literature). */
class RandomDispatcher final : public Dispatcher
{
  public:
    /** @param seed Seed of the routing RNG. */
    explicit RandomDispatcher(std::uint64_t seed = 1);
    using Dispatcher::route; ///< Keeps the snapshot overload visible.
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "random"; }

  private:
    Rng _rng;
};

/** Cyclic routing: deterministic, evens out arrival counts. */
class RoundRobinDispatcher final : public Dispatcher
{
  public:
    using Dispatcher::route; ///< Keeps the snapshot overload visible.
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "round-robin"; }

  private:
    std::size_t _next = 0;
};

/** Join-shortest-queue by committed backlog (ties -> lowest index). */
class JsqDispatcher final : public Dispatcher
{
  public:
    using Dispatcher::route; ///< Keeps the snapshot overload visible.
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "JSQ"; }
};

/**
 * Sleep-aware packing: prefer the least-backlogged *busy* server so
 * idle servers stay asleep; spill to an idle server only when every
 * busy server's backlog exceeds a threshold. Concentrating work is the
 * classic consolidation play for sleep-state effectiveness.
 */
class PackingDispatcher final : public Dispatcher
{
  public:
    /**
     * @param spill_backlog Backlog (seconds) beyond which an idle
     *        server is woken instead of queueing deeper.
     */
    explicit PackingDispatcher(double spill_backlog);
    using Dispatcher::route; ///< Keeps the snapshot overload visible.
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "packing"; }

  private:
    double _spillBacklog;
};

/** Inputs available to a dispatcher factory. */
struct DispatcherContext
{
    /** Seed for stochastic dispatchers. */
    std::uint64_t seed = 1;

    /** Spill threshold for the packing dispatcher, seconds. */
    double spillBacklog = 1.0;
};

/** Factory signature stored in the dispatcher registry. */
using DispatcherFactory =
    std::function<std::unique_ptr<Dispatcher>(const DispatcherContext &)>;

/**
 * The dispatcher registry. Ships with "random", "round-robin", "JSQ",
 * and "packing"; extensions register additional routing policies under
 * new names. FarmRuntime validates its configured dispatcher against
 * this registry at construction, so misspelled names fail fast with
 * the registered alternatives listed.
 */
Registry<DispatcherFactory> &dispatcherRegistry();

/** Construct a registered dispatcher by name; fatal() on unknown names. */
std::unique_ptr<Dispatcher> makeDispatcher(const std::string &name,
                                           std::uint64_t seed = 1,
                                           double spill_backlog = 1.0);

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_DISPATCHER_HH
