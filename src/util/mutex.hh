/**
 * @file
 * Capability-annotated mutual-exclusion primitives.
 *
 * Clang's thread-safety analysis (util/thread_annotations.hh) can only
 * check lock disciplines expressed through lock types it knows are
 * capabilities, and libstdc++'s `std::mutex` carries no annotations.
 * These thin wrappers close that gap: `Mutex` is an annotated
 * `std::mutex`, `MutexLock` the scoped guard the analysis tracks, and
 * `ConditionVariable` an alias for `std::condition_variable_any`, which
 * can wait on a `Mutex` directly.
 *
 * Waiting idiom (the analysis sees the capability held across the wait,
 * which matches the caller-visible contract — held before and after):
 *
 *     MutexLock lock(_mutex);
 *     while (!condition())   // reads of GUARDED_BY(_mutex) state OK
 *         _wake.wait(_mutex);
 *
 * Zero runtime cost beyond `std::mutex` itself; the annotations exist
 * only at compile time.
 */

#ifndef SLEEPSCALE_UTIL_MUTEX_HH
#define SLEEPSCALE_UTIL_MUTEX_HH

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hh"

namespace sleepscale {

/** A `std::mutex` the thread-safety analysis understands. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Acquire exclusively (BasicLockable, so ConditionVariable::wait
     * can relock it directly). */
    void lock() ACQUIRE() { _mutex.lock(); }

    /** Release. */
    void unlock() RELEASE() { _mutex.unlock(); }

  private:
    std::mutex _mutex;
};

/** Scoped exclusive lock over a Mutex (the annotated lock_guard). */
class SCOPED_CAPABILITY MutexLock
{
  public:
    /** Acquires `mutex`; held until destruction. */
    explicit MutexLock(Mutex &mutex) ACQUIRE(mutex) : _mutex(mutex)
    {
        _mutex.lock();
    }

    /** Releases the mutex. */
    ~MutexLock() RELEASE() { _mutex.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &_mutex;
};

/** Condition variable that waits on a Mutex (see the file comment for
 * the analysis-friendly wait idiom). */
using ConditionVariable = std::condition_variable_any;

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_MUTEX_HH
