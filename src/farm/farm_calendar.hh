/**
 * @file
 * Event-time index structures for the O(log N)-dispatch farm core.
 *
 * Farm routing must answer two queries per arrival without scanning
 * every server: "lowest-index idle server" and "busy server whose
 * queue empties first (lowest index on ties)", both over the servers
 * accepting work. IdleSet answers the first with a hierarchical 64-ary
 * bitmap; BusyCalendar answers the second with a lazy min-heap of
 * (queue-empties time, server) entries keyed against the farm's
 * next-free mirror. A server that stops accepting work leaves both
 * until it is readmitted. Together they make routing O(log N) with or
 * without servers down, which is what makes 10k–100k server farms
 * tractable (docs/FARM_SCALE.md).
 *
 * Both structures are bookkeeping only: they never touch simulation
 * state, so routing decisions made through them are bit-identical to
 * a strict-< scan over the accepting servers' backlogs.
 */

#ifndef SLEEPSCALE_FARM_FARM_CALENDAR_HH
#define SLEEPSCALE_FARM_FARM_CALENDAR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sleepscale {

/**
 * Ordered set of idle server indices with O(levels) mutation and
 * lowest-member lookup (levels = log64 of the farm size, so at most 3
 * for 100k servers). Memory is one bit per server plus a 1/64
 * hierarchy overhead — O(1) per server.
 */
class IdleSet
{
  public:
    /** Empty set over zero servers (reassign to size before use). */
    IdleSet() = default;

    /**
     * Set over server indices [0, size).
     *
     * @param size Number of server slots.
     * @param full Start with every index a member (a fresh farm is
     *        all-idle) instead of empty.
     */
    explicit IdleSet(std::size_t size, bool full = false);

    /** Add an index to the set (no-op when already a member). */
    void insert(std::size_t index);

    /** Remove an index from the set (no-op when not a member). */
    void erase(std::size_t index);

    /** Whether an index is currently a member. */
    bool contains(std::size_t index) const;

    /** Lowest member index, or size() when the set is empty. */
    std::size_t lowest() const;

    /** Whether the set has no members. */
    bool empty() const { return _members == 0; }

    /** Number of members. */
    std::size_t count() const { return _members; }

    /** Number of server slots (the universe, not the membership). */
    std::size_t size() const { return _size; }

  private:
    std::size_t _size = 0;
    std::size_t _members = 0;

    /** _levels[0] holds one bit per server; each level above holds one
     * bit per 64-bit word of the level below (bit set iff the child
     * word is nonzero). The top level is a single word. */
    std::vector<std::vector<std::uint64_t>> _levels;
};

/** One scheduled queue-empties event: server becomes idle at `time`. */
struct CalendarEntry
{
    double time = 0.0;       ///< Queue-empties (next-free) time.
    std::size_t server = 0;  ///< Server the event belongs to.
};

/**
 * Lazy min-heap of queue-empties events, ordered by (time, server) so
 * ties break to the lowest server index exactly like a lowest-index
 * scan.
 *
 * Every admission pushes a fresh entry with the server's new next-free
 * time; earlier entries for the same server are not removed but become
 * *stale* (their time no longer matches the caller's next-free mirror,
 * which only ever moves forward, or is NaN while the server is out of
 * routing). Stale entries sort before the valid one and are discarded
 * when they surface, so each admission costs amortized O(log H) with H
 * bounded by the number of admissions since the last drain.
 */
class BusyCalendar
{
  public:
    /** Returned by earliestBusy() when no valid entry remains. */
    static constexpr std::size_t none = static_cast<std::size_t>(-1);

    /** Schedule a queue-empties event for a server. */
    void push(double time, std::size_t server)
    {
        _heap.push_back(CalendarEntry{time, server});
        std::push_heap(_heap.begin(), _heap.end(), later);
    }

    /** Whether any entries (valid or stale) remain. */
    bool empty() const { return _heap.empty(); }

    /** Entries currently held (valid plus stale), for memory audits. */
    std::size_t pendingEntries() const { return _heap.size(); }

    /**
     * Pop every event due at or before time t. Events whose time still
     * matches the server's entry in `next_free` are real transitions to
     * idle and are reported through `on_idle(server)`; stale entries
     * are discarded silently.
     *
     * @param t Drain horizon (inclusive).
     * @param next_free Per-server next-free mirror (the validity key).
     * @param on_idle Callback invoked once per server going idle.
     */
    template <typename OnIdle>
    void drainDue(double t, const std::vector<double> &next_free,
                  OnIdle &&on_idle)
    {
        while (!_heap.empty() && _heap.front().time <= t) {
            const CalendarEntry entry = _heap.front();
            std::pop_heap(_heap.begin(), _heap.end(), later);
            _heap.pop_back();
            if (entry.time == next_free[entry.server])
                on_idle(entry.server);
        }
    }

    /**
     * Server with the earliest valid queue-empties event (the
     * least-backlogged busy server once events due by "now" have been
     * drained), ties to the lowest index. Prunes stale entries from the
     * top of the heap as a side effect.
     *
     * @param next_free Per-server next-free mirror (the validity key).
     * @return Server index, or none when no valid entry remains.
     */
    std::size_t earliestBusy(const std::vector<double> &next_free)
    {
        while (!_heap.empty()
               && _heap.front().time != next_free[_heap.front().server]) {
            std::pop_heap(_heap.begin(), _heap.end(), later);
            _heap.pop_back();
        }
        return _heap.empty() ? none : _heap.front().server;
    }

  private:
    /** Max-heap comparator giving a min-heap on (time, server). */
    static bool later(const CalendarEntry &a, const CalendarEntry &b)
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.server > b.server;
    }

    std::vector<CalendarEntry> _heap;
};

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_FARM_CALENDAR_HH
