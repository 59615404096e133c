/**
 * @file
 * Clang thread-safety annotation macros (Runtime-seam prep).
 *
 * ROADMAP item 2 extracts a `Runtime` seam whose real-process backend
 * runs protocol state machines on actual threads.  The handful of
 * process-wide types that backend will share — the metrics registry,
 * the trace buffer, the simulator/network pooled stores — are
 * annotated *now*, while the code is still single-threaded, so the
 * lock discipline is machine-checked from day one instead of being
 * retrofitted after the first data race.
 *
 * Under clang the macros expand to the `-Wthread-safety` attributes
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); everywhere
 * else they vanish.  The analysis is purely static: it checks that
 * every access to an OS_GUARDED_BY member happens while the named
 * capability (util::Mutex) is held.
 *
 * scripts/check.sh's `tsafety` configuration builds the tree with
 * clang and `-Wthread-safety -Werror`; the CI `analysis` job runs it.
 */

#ifndef OCEANSTORE_UTIL_THREAD_ANNOTATIONS_H
#define OCEANSTORE_UTIL_THREAD_ANNOTATIONS_H

#if defined(__clang__) && (!defined(SWIG))
#define OS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define OS_THREAD_ANNOTATION__(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability (a mutex-like thing). */
#define OS_CAPABILITY(x) OS_THREAD_ANNOTATION__(capability(x))

/** Marks an RAII type that acquires on construction, releases on
 *  destruction (e.g. util::MutexLock). */
#define OS_SCOPED_CAPABILITY OS_THREAD_ANNOTATION__(scoped_lockable)

/** Data member readable/writable only while @p x is held. */
#define OS_GUARDED_BY(x) OS_THREAD_ANNOTATION__(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define OS_PT_GUARDED_BY(x) OS_THREAD_ANNOTATION__(pt_guarded_by(x))

/** Function that must be called with the capability held. */
#define OS_REQUIRES(...) \
    OS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/** Function that must be called with the capability *not* held. */
#define OS_EXCLUDES(...) \
    OS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/** Function that acquires the capability and holds it on return. */
#define OS_ACQUIRE(...) \
    OS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/** Function that releases the capability. */
#define OS_RELEASE(...) \
    OS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/** Try-lock: acquires the capability when returning @p ret. */
#define OS_TRY_ACQUIRE(ret, ...) \
    OS_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/** Function returning a reference to the named capability. */
#define OS_RETURN_CAPABILITY(x) \
    OS_THREAD_ANNOTATION__(lock_returned(x))

/** Escape hatch: suppress the analysis for one function.  Use only
 *  with a comment explaining why the access pattern is safe. */
#define OS_NO_THREAD_SAFETY_ANALYSIS \
    OS_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif // OCEANSTORE_UTIL_THREAD_ANNOTATIONS_H
