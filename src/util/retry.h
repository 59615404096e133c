/**
 * @file
 * Unified retry/timeout policy (robustness substrate).
 *
 * The paper assumes "servers and devices will connect, disconnect,
 * and fail sporadically" (Section 4.7); every protocol that sends a
 * request over such a substrate needs the same three ingredients:
 * a timeout, exponential backoff, and a bound on attempts.  This
 * header provides the one policy type shared by PBFT client
 * submission, archival fragment requests, location queries and the
 * dissemination-tree push, plus the deterministic backoff sequence
 * derived from it.
 *
 * Jitter is drawn from a seeded Rng, never wall-clock entropy, so a
 * retried scenario replays bit-for-bit under the determinism
 * contract (DESIGN.md section 8).
 */

#ifndef OCEANSTORE_UTIL_RETRY_H
#define OCEANSTORE_UTIL_RETRY_H

#include <cstdint>
#include <optional>

#include "util/random.h"

namespace oceanstore {

/** Timeout + exponential-backoff + bounded-attempt parameters. */
struct RetryPolicy
{
    /** Seconds between the first attempt and the first retry. */
    double firstDelay = 1.0;
    /** Multiplier applied to the delay after every retry. */
    double backoff = 2.0;
    /** Ceiling on the per-retry delay, seconds. */
    double maxDelay = 30.0;
    /** Total attempts, counting the initial one.  Never unbounded:
     *  a simulation must drain its event queue. */
    unsigned maxAttempts = 5;
    /** Fractional +/- jitter applied to every delay (deterministic,
     *  from the schedule's seed). */
    double jitter = 0.0;
};

/**
 * The concrete delay sequence a policy generates for one call.
 *
 * nextDelay() yields exactly @c maxAttempts values: the first
 * maxAttempts-1 are the gaps before attempts 2..maxAttempts, and the
 * final value is the grace period after the last attempt before the
 * caller should declare the call exhausted.  Two schedules built from
 * the same (policy, seed) produce identical sequences.
 */
class RetrySchedule
{
  public:
    RetrySchedule(const RetryPolicy &policy, std::uint64_t seed);

    /** Next delay in seconds, or nullopt once the policy's attempt
     *  budget (plus the final grace wait) is consumed. */
    std::optional<double> nextDelay();

    /** True once every delay has been handed out. */
    bool exhausted() const { return issued_ > policy_.maxAttempts; }

    /** The generating policy. */
    const RetryPolicy &policy() const { return policy_; }

  private:
    RetryPolicy policy_;
    Rng rng_;
    unsigned issued_ = 1; //!< Next delay index to hand out.
};

} // namespace oceanstore

#endif // OCEANSTORE_UTIL_RETRY_H
