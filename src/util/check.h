/**
 * @file
 * Runtime contract checks.
 *
 * OS_CHECK verifies an invariant in every build configuration and
 * aborts with a diagnostic when it fails; OS_DCHECK is identical in
 * debug/sanitizer builds and compiles to nothing under NDEBUG, so it
 * may guard hot paths.  Both replace bare assert(): a failure always
 * prints the expression, location, and an optional streamed message
 * before aborting, which is what we want from a simulator whose
 * results are only meaningful if its invariants hold.
 *
 * Usage:
 *   OS_CHECK(k <= n);
 *   OS_CHECK(when >= now_, "event at t=", when, " scheduled in past");
 *   OS_DCHECK(idx < table_.size());
 */

#ifndef OCEANSTORE_UTIL_CHECK_H
#define OCEANSTORE_UTIL_CHECK_H

#include <sstream>
#include <string>

namespace oceanstore {

/**
 * Last-gasp diagnostics hook: called (at most once, with the
 * registered argument) after a failed check prints its diagnostic
 * and before the process aborts.  FlightScope (obs/export.h) uses
 * this to dump the newest spans + a metrics snapshot from a crashing
 * threaded deployment.  The hook is consumed on first failure — a check
 * failing *inside* the hook falls straight through to abort, so the
 * hook may safely call checked code.
 */
using CheckFailureHook = void (*)(void *arg);

/** Install @p hook (nullptr to clear); returns nothing.  The
 *  previous hook/arg pair can be read back via
 *  checkFailureHook()/checkFailureHookArg() for RAII restore. */
void setCheckFailureHook(CheckFailureHook hook, void *arg);

/** The currently installed hook / argument (for save-restore). */
CheckFailureHook checkFailureHook();
void *checkFailureHookArg();

namespace check_detail {

/** Print the diagnostic, run the failure hook (once), and abort.
 *  Never returns. */
[[noreturn]] void checkFailed(const char *file, int line,
                              const char *macro, const char *expr,
                              const std::string &msg);

/** Stream any number of arguments into one message string. */
template <typename... Args>
std::string
formatMsg(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace check_detail
} // namespace oceanstore

/**
 * Verify @p cond in all build types; abort with a diagnostic (plus any
 * extra stream-able arguments) when it is false.
 */
#define OS_CHECK(cond, ...)                                              \
    do {                                                                 \
        if (!(cond))                                                     \
            ::oceanstore::check_detail::checkFailed(                     \
                __FILE__, __LINE__, "OS_CHECK", #cond,                   \
                ::oceanstore::check_detail::formatMsg(__VA_ARGS__));     \
    } while (0)

/**
 * Debug-only contract check: same as OS_CHECK when NDEBUG is not
 * defined, compiled out (operands unevaluated) in release builds.
 */
#ifdef NDEBUG
#define OS_DCHECK(cond, ...)                                             \
    do {                                                                 \
        (void)sizeof(!(cond));                                           \
    } while (0)
#else
#define OS_DCHECK(cond, ...)                                             \
    do {                                                                 \
        if (!(cond))                                                     \
            ::oceanstore::check_detail::checkFailed(                     \
                __FILE__, __LINE__, "OS_DCHECK", #cond,                  \
                ::oceanstore::check_detail::formatMsg(__VA_ARGS__));     \
    } while (0)
#endif

#endif // OCEANSTORE_UTIL_CHECK_H
