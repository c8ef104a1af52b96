/**
 * @file
 * Flat ring buffer of departures awaiting window attribution.
 *
 * ServerSim and MulticoreSim buffer every job's (departure time,
 * response time) pair between the instant the departure is committed
 * (at admission, thanks to FCFS) and the window boundary that absorbs
 * it. A std::deque pays a heap allocation every few hundred entries and
 * scatters the pairs across map blocks; this ring keeps them in one
 * contiguous power-of-two slab that only grows, so steady-state
 * simulation pushes and pops with zero heap traffic.
 */

#ifndef SLEEPSCALE_SIM_PENDING_QUEUE_HH
#define SLEEPSCALE_SIM_PENDING_QUEUE_HH

#include <cstddef>
#include <vector>

namespace sleepscale {

/** A committed departure not yet attributed to a statistics window. */
struct PendingDeparture
{
    double depart = 0.0;   ///< Absolute departure time, seconds.
    double response = 0.0; ///< Response time of the departing job.
};

/** FIFO ring of PendingDepartures; capacity only grows. */
class PendingQueue
{
  public:
    /** Whether no departure is buffered. */
    bool empty() const { return _count == 0; }

    /** Number of buffered departures. */
    std::size_t size() const { return _count; }

    /** Oldest buffered departure (FCFS keeps these time-ordered). */
    const PendingDeparture &front() const { return _slots[_head]; }

    /** Buffer a departure behind the newest one. */
    void
    push(double depart, double response)
    {
        if (_count == _slots.size())
            grow();
        _slots[(_head + _count) & _mask] = {depart, response};
        ++_count;
    }

    /** Drop the oldest departure; the queue must not be empty. */
    void
    pop()
    {
        _head = (_head + 1) & _mask;
        --_count;
    }

  private:
    void
    grow()
    {
        // Unroll the full ring into a doubled slab, oldest first.
        std::vector<PendingDeparture> bigger(_slots.size() * 2);
        for (std::size_t i = 0; i < _count; ++i)
            bigger[i] = _slots[(_head + i) & _mask];
        _slots = std::move(bigger);
        _mask = _slots.size() - 1;
        _head = 0;
    }

    std::vector<PendingDeparture> _slots =
        std::vector<PendingDeparture>(64);
    std::size_t _mask = 63;
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_PENDING_QUEUE_HH
