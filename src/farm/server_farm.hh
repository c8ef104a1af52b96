/**
 * @file
 * A farm of SleepScale servers behind a dispatcher (paper Section 7).
 *
 * Each back-end is a full ServerSim — same power model, sleep descents,
 * and accounting as the single-server experiments — so farm-level
 * results compose from validated parts. The farm exposes the same
 * offer/advance/harvest interface as a single server, with aggregate
 * and per-server statistics. Back-ends may run heterogeneous platform
 * models (a big/little mix), in which case each server's power and
 * wake-latency accounting uses its own model.
 *
 * Every arrival takes one routing path: the dispatcher sees a FarmView
 * over the servers accepting work, backed by an idle-server bitmap and
 * a queue-empties calendar (farm/farm_calendar.hh) that hold accepting
 * servers only, so routing costs O(log N) with or without servers
 * down.
 */

#ifndef SLEEPSCALE_FARM_SERVER_FARM_HH
#define SLEEPSCALE_FARM_SERVER_FARM_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "farm/dispatcher.hh"
#include "farm/farm_calendar.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"

namespace sleepscale {

/** Accounting-shard worker pool (util/thread_pool.hh), forward-declared
 * so the header stays light. */
class ThreadPool;

/** Fixed-size server farm (homogeneous or per-server platforms). */
class ServerFarm
{
  public:
    /**
     * Homogeneous farm: every server shares one power model (the
     * per-server constructor with `size` copies of `platform`).
     *
     * @param platform Power model shared by all servers (not owned).
     * @param scaling Service-time scaling law.
     * @param initial Policy every server starts with.
     * @param size Number of servers (>= 1).
     * @param dispatcher Routing strategy (owned).
     */
    ServerFarm(const PlatformModel &platform, ServiceScaling scaling,
               const Policy &initial, std::size_t size,
               std::unique_ptr<Dispatcher> dispatcher);

    /**
     * Heterogeneous farm: one power model per server.
     *
     * @param platforms Per-server power models (none owned, none null;
     *        all must outlive the farm). The farm size is
     *        platforms.size() (>= 1).
     * @param scaling Service-time scaling law shared by the servers.
     * @param initial Policy every server starts with.
     * @param dispatcher Routing strategy (owned).
     */
    ServerFarm(const std::vector<const PlatformModel *> &platforms,
               ServiceScaling scaling, const Policy &initial,
               std::unique_ptr<Dispatcher> dispatcher);

    /** Number of servers. */
    std::size_t size() const { return _servers.size(); }

    /** Returned by tryOfferJob() when no server is accepting work. */
    static constexpr std::size_t noServer =
        static_cast<std::size_t>(-1);

    /**
     * Route and admit one arrival (non-decreasing arrival times).
     * Routing only considers servers accepting work at the arrival
     * instant; when there are none the dispatcher is not called and
     * noServer comes back, so the caller can back off and retry
     * (FarmRuntime's failover path).
     *
     * @return Index of the admitting server, or noServer.
     */
    std::size_t tryOfferJob(const Job &job);

    /** Integrate all servers' accounting up to time t (also accrues
     * per-server unavailability, see downSeconds()). */
    void advanceTo(double t);

    /**
     * Crash one server at time t: it stops accepting new work, runs
     * out its committed backlog, then idles dark until
     * restoreServer(). Idempotent on an already-crashed server.
     */
    void failServer(std::size_t server, double t);

    /**
     * Restore a crashed server at time t: it re-enters service after
     * the configured recovery delay. No-op on a server that is not
     * crashed.
     */
    void restoreServer(std::size_t server, double t);

    /** Additional delay between restoreServer() and accepting work
     * again, seconds (default 0: recovery is instantaneous). */
    void setRecoverySeconds(double seconds);

    /** Whether a server accepts new work at time `now`. */
    bool accepting(std::size_t server, double now) const;

    /** Cumulative seconds this server has been unavailable (crashed or
     * recovering), accrued by advanceTo(), the crash/restore calls, and
     * the arrival that readmits the server. */
    double downSeconds(std::size_t server) const;

    /** Sum of downSeconds() across the farm. */
    double totalDownSeconds() const;

    /** Switch every server to a policy at time t. */
    void setPolicy(const Policy &policy, double t);

    /** Switch one server's policy at time t. */
    void setPolicy(std::size_t server, const Policy &policy, double t);

    /** Policy currently in force on a server. */
    const Policy &policy(std::size_t server) const;

    /** Harvest every server's window, one entry per server (per-server
     * control reads these individually and merges with mergeWindows()
     * for the farm view). */
    std::vector<SimStats> harvestWindows();

    /**
     * Merge per-server windows into one farm window: energies and
     * residencies add, responses pool, and the window span is the
     * union wall-clock span, not multiplied by the farm size (so
     * avgPower() reports farm watts). Needs >= 1 window.
     */
    static SimStats mergeWindows(const std::vector<SimStats> &windows);

    /** Jobs routed to each server so far. */
    const std::vector<std::uint64_t> &jobsPerServer() const
    {
        return _jobsRouted;
    }

    /** Committed backlog of one server at time t. */
    double backlog(std::size_t server, double t) const;

    /** Latest time across servers with committed work. */
    double nextFreeTime() const;

    /**
     * Shard per-server accounting (advanceTo(), harvestWindows())
     * across a worker pool. The pool is not owned and must outlive the
     * farm (or a later setShardPool(nullptr)). Per-server state is
     * independent and windows are merged in index order, so results
     * are bit-identical at any lane count, including nullptr (serial).
     */
    void setShardPool(ThreadPool *pool);

    /** Toggle per-completion response-tail histograms on every server
     * (ServerSim::setRecordTail). Off, no histogram buckets are ever
     * allocated — the memory lever for 10k+ server farms. */
    void setRecordTail(bool record);

    /** Calendar entries currently held (valid plus stale), exposed for
     * memory audits in the scale tests. */
    std::size_t calendarEntries() const
    {
        return _calendar.pendingEntries();
    }

  private:
    class AcceptingView; ///< The routing view (server_farm.cc).

    std::vector<ServerSim> _servers;
    std::unique_ptr<Dispatcher> _dispatcher;
    std::vector<std::uint64_t> _jobsRouted;
    double _lastArrival = 0.0;

    /** Per-server availability: the time a server (re-)enters service.
     * 0 initially (always accepting), +inf while crashed, restore time
     * plus the recovery delay while recovering. */
    std::vector<double> _acceptFrom;

    /** Per-server cumulative unavailability, seconds. */
    std::vector<double> _downSeconds;

    /** Per-server accrual marker: unavailability is accounted up to
     * this time (meaningful only while a server is unavailable). */
    std::vector<double> _downMark;

    /** Recovery delay applied by restoreServer(), seconds. */
    double _recoverySeconds = 0.0;

    /** Servers out of routing, ascending: crashed, or restored but not
     * yet readmitted by an arrival. They hold no idle-set bit and no
     * valid calendar entry. Positions in the routing view skip them. */
    std::vector<std::size_t> _unavailable;

    /** Earliest time a listed server may be readmitted (+inf when none
     * is recovering); may run early after a crash during recovery. */
    double _readmitDue = std::numeric_limits<double>::infinity();

    /** Mirror of each server's nextFreeTime(), updated on admission
     * and readmission only (ServerSim moves it nowhere else); NaN while
     * the server is listed unavailable. Keys the calendar's stale-entry
     * detection and the idle set. */
    std::vector<double> _nextFree;

    /** Idle accepting servers (lowest-index lookup for routing). */
    IdleSet _idleSet;

    /** Queue-empties events for busy accepting servers (lazy
     * min-heap). */
    BusyCalendar _calendar;

    /** Worker pool for sharded accounting (not owned; may be null). */
    ThreadPool *_shardPool = nullptr;

    /** Accrue one server's unavailability up to time t. */
    void accrueDown(std::size_t server, double t);

    /** Return every listed server whose recovery has ended by time t to
     * routing: accrue the rest of its downtime and schedule its
     * queue-empties event (the next drain marks an empty server idle). */
    void readmitUpTo(double t);

    /** Retire queue-empties events due by time t into the idle set. */
    void processCalendarUpTo(double t);

    /** Record an admission in the next-free mirror, idle set, and
     * calendar (no simulation effect). */
    void noteAdmission(std::size_t server);

    /** Run body(i) for every server, sharded over the pool when one is
     * set. The body must touch only server i's state. */
    template <typename Body>
    void forEachServer(const Body &body);
};

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_SERVER_FARM_HH
