/**
 * @file
 * Annotated mutex for the Runtime seam.
 *
 * util::Mutex wraps a std::mutex and carries the clang thread-safety
 * annotations, so the lock discipline of the types the threaded
 * runtime shares across threads (the metrics registry, the trace
 * buffer, the simulator/network pooled stores) is statically checked
 * by `scripts/check.sh tsafety` (clang, -Wthread-safety -Werror).
 * The single-threaded simulator takes the same locks uncontended.
 */

#ifndef OCEANSTORE_UTIL_MUTEX_H
#define OCEANSTORE_UTIL_MUTEX_H

#include <mutex>

#include "util/thread_annotations.h"

namespace oceanstore {

/** A mutual-exclusion capability backed by std::mutex. */
class OS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() OS_ACQUIRE() { m_.lock(); }
    void unlock() OS_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** RAII lock over a util::Mutex. */
class OS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) OS_ACQUIRE(mu)
        : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() OS_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

} // namespace oceanstore

#endif // OCEANSTORE_UTIL_MUTEX_H
