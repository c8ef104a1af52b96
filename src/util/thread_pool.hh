/**
 * @file
 * A persistent worker pool for deterministic data-parallel fan-out.
 *
 * Extracted from ExperimentRunner's hand-rolled per-run thread vector so
 * every layer that fans out over an index space — scenario sweeps, the
 * policy-evaluation engine's candidate search — shares one primitive.
 * parallelFor() hands out indices through a single atomic counter, so the
 * assignment of items to lanes is nondeterministic but the *set* of items
 * executed is exactly [0, count); callers that store results by item index
 * and reduce in index order are bit-identical to a serial loop.
 *
 * The pool's lock discipline is machine-checked: every cross-thread
 * member carries a GUARDED_BY annotation (util/thread_annotations.hh)
 * and the -DSLEEPSCALE_THREAD_SAFETY=ON build fails on any access that
 * does not hold the named mutex. See docs/CONCURRENCY.md.
 */

#ifndef SLEEPSCALE_UTIL_THREAD_POOL_HH
#define SLEEPSCALE_UTIL_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hh"

namespace sleepscale {

/** Persistent pool of worker threads driving index-space loops. */
class ThreadPool
{
  public:
    /**
     * @param lanes Total concurrency, including the calling thread: a
     *        pool with `lanes` = N spawns N - 1 workers and the caller
     *        participates as lane 0. 0 selects the hardware concurrency;
     *        1 makes parallelFor() a plain serial loop (no threads).
     */
    explicit ThreadPool(std::size_t lanes = 0);

    /** Stops and joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lanes available to parallelFor() (workers plus the caller). */
    std::size_t size() const { return _workers.size() + 1; }

    /** Loop body: item index in [0, count), lane index in [0, size()). */
    using Body = std::function<void(std::size_t item, std::size_t lane)>;

    /**
     * Run body(i, lane) for every i in [0, count). Blocks until all
     * items finish; the first exception recorded by any item is rethrown
     * after the loop completes (remaining items still run). The lane
     * index identifies the executing thread, so callers can maintain
     * per-lane scratch state (e.g. the evaluation engine's tail
     * histograms) without locking.
     *
     * Not reentrant: one parallelFor() at a time per pool, and the body
     * must not call back into the same pool.
     */
    void parallelFor(std::size_t count, const Body &body) EXCLUDES(_mutex);

    /** Hardware concurrency, with a floor of 1. The only sanctioned
     * call site of std::thread::hardware_concurrency (enforced by
     * tools/lint_determinism.py): lane counts size scratch arenas, and
     * results are reduced in index order, so the machine-dependent
     * value never reaches a simulation outcome. */
    static std::size_t hardwareLanes();

  private:
    /** One parallelFor invocation's shared state. Lives on the caller's
     * stack; workers borrow it through _batch for one generation. */
    struct Batch
    {
        std::size_t count = 0;     ///< Immutable once published.
        const Body *body = nullptr; ///< Immutable once published.

        /** Next index to hand out; the only hot-path synchronization. */
        std::atomic<std::size_t> next{0};

        /** Serializes first-error recording off the hot path. */
        Mutex errorMutex;

        /** First failure recorded by any lane. */
        std::exception_ptr error GUARDED_BY(errorMutex);
    };

    void workerLoop(std::size_t lane) EXCLUDES(_mutex);
    static void drain(Batch &batch, std::size_t lane);

    std::vector<std::thread> _workers;
    Mutex _mutex;
    ConditionVariable _wake;
    ConditionVariable _done;

    /** Batch workers should drain (null between generations). */
    Batch *_batch GUARDED_BY(_mutex) = nullptr;

    /** Bumped once per parallelFor() so workers can tell a fresh batch
     * from a spurious wakeup. */
    std::uint64_t _generation GUARDED_BY(_mutex) = 0;

    /** Workers still draining the current batch. */
    std::size_t _remaining GUARDED_BY(_mutex) = 0;

    /** Set once by the destructor to retire the workers. */
    bool _stop GUARDED_BY(_mutex) = false;
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_THREAD_POOL_HH
