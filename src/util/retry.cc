#include "util/retry.h"

#include <algorithm>

#include "util/check.h"

namespace oceanstore {

RetrySchedule::RetrySchedule(const RetryPolicy &policy, std::uint64_t seed)
    : policy_(policy), rng_(seed)
{
    OS_CHECK(policy.firstDelay > 0, "RetryPolicy: firstDelay ",
             policy.firstDelay, " must be positive");
    OS_CHECK(policy.backoff >= 1.0, "RetryPolicy: backoff ",
             policy.backoff, " must be >= 1");
    OS_CHECK(policy.maxAttempts >= 1,
             "RetryPolicy: maxAttempts must be >= 1");
    OS_CHECK(policy.jitter >= 0.0 && policy.jitter < 1.0,
             "RetryPolicy: jitter ", policy.jitter,
             " outside [0, 1)");
}

std::optional<double>
RetrySchedule::nextDelay()
{
    if (issued_ > policy_.maxAttempts)
        return std::nullopt;

    // Delay index i (1-based) backs off geometrically from firstDelay,
    // clamped at maxDelay.  The final issued delay (index maxAttempts)
    // is the grace wait after the last attempt.
    double base = policy_.firstDelay;
    for (unsigned i = 1; i < issued_; i++) {
        base *= policy_.backoff;
        if (base >= policy_.maxDelay)
            break;
    }
    base = std::min(base, policy_.maxDelay);
    if (policy_.jitter > 0)
        base *= 1.0 + rng_.uniform(-policy_.jitter, policy_.jitter);

    issued_++;
    return base;
}

} // namespace oceanstore
