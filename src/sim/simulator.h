/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Substitution (documented in DESIGN.md): the paper envisioned a
 * planet-wide deployment of millions of servers; every quantitative
 * claim it makes (message counts, byte costs, hop counts, phase
 * latencies) is a property of protocol structure.  We therefore run
 * all OceanStore protocols above a deterministic discrete-event
 * simulator instead of a real WAN.
 *
 * Implementation (DESIGN.md section 9): events live in a pool of
 * reusable slots; the priority queue orders 24-byte POD handles
 * (when, seq, slot) instead of closures, and cancellation is O(1)
 * generation-count bookkeeping — a cancelled slot is reclaimed
 * immediately and its queue entry is recognized as stale by sequence
 * mismatch when popped, so there is no tombstone set and no scan.
 *
 * Determinism contract (enforced by self-audit checks in step()):
 *  - simulated time never moves backwards;
 *  - events at the same timestamp fire in scheduling order (FIFO
 *    tie-break on the monotonically increasing sequence number);
 *  - cancellation bookkeeping never leaks: when the queue drains,
 *    every stale queue entry must have been consumed and every pool
 *    slot reclaimed.
 */

#ifndef OCEANSTORE_SIM_SIMULATOR_H
#define OCEANSTORE_SIM_SIMULATOR_H

#include <cstdint>
#include <queue>
#include <vector>

#include "obs/trace.h"
#include "sim/event_fn.h"
#include "util/mutex.h"

namespace oceanstore {

/** Simulated time, in seconds. */
using SimTime = double;

/**
 * Handle for a scheduled event, usable with Simulator::cancel().
 * Encodes (pool slot, slot generation); the zero value is never a
 * live event.  Stale handles — fired, cancelled, never scheduled, or
 * whose slot was since reused — are recognized and ignored.
 */
using EventId = std::uint64_t;

/** Sentinel EventId that never names a live event. */
constexpr EventId invalidEventId = 0;

/**
 * The event queue and simulated clock.
 *
 * Events scheduled at the same timestamp fire in scheduling order
 * (FIFO tie-break), which keeps runs bit-for-bit reproducible.
 *
 * Thread contract (Runtime-seam prep, DESIGN.md section 12): the
 * pooled event store and the clock are guarded by mu_, checked by
 * the clang -Wthread-safety build.  The lock is never held across a
 * callback: step() pops and reclaims under the lock, then fires with
 * it released, so handlers are free to reschedule and other threads
 * free to schedule into a running loop.
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Current simulated time. */
    SimTime
    now() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return now_;
    }

    /**
     * Schedule @p fn to run @p delay seconds from now.
     * @return an id usable with cancel().
     */
    EventId schedule(SimTime delay, EventFn fn) OS_EXCLUDES(mu_);

    /** Schedule @p fn at absolute time @p when (>= now). */
    EventId scheduleAt(SimTime when, EventFn fn) OS_EXCLUDES(mu_);

    /**
     * Cancel a pending event; no-op if already fired, already
     * cancelled, or never scheduled.  O(1): the slot is reclaimed and
     * its captures released immediately.
     */
    void cancel(EventId id) OS_EXCLUDES(mu_);

    /** Run one event.  @return false when the queue is empty. */
    bool step() OS_EXCLUDES(mu_);

    /** Run until the queue drains. */
    void run();

    /** Run until the queue drains or the clock passes @p until. */
    void runUntil(SimTime until) OS_EXCLUDES(mu_);

    /** Next live event's deadline; +infinity when none is pending. */
    SimTime nextEventTime() OS_EXCLUDES(mu_);

    /**
     * Move the clock forward to min(@p t, nextEventTime()) without
     * firing anything; never moves it backwards.  This is how a
     * wall-clock pacer (runtime/threaded_pacer.h) lets an idle
     * clock catch up with real time before a client schedules.
     */
    void advanceTo(SimTime t) OS_EXCLUDES(mu_);

    /** Live events due at or before @p t (O(pool size)). */
    std::size_t dueBy(SimTime t) const OS_EXCLUDES(mu_);

    /** Number of events executed so far. */
    std::uint64_t
    eventsExecuted() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return executed_;
    }

    /** Number of events currently pending (scheduled, not yet fired
     *  or cancelled). */
    std::size_t
    pending() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return pending_;
    }

    /** Stale queue entries left by cancel(), not yet popped.  (The
     *  slots themselves are already reclaimed; this counts only the
     *  24-byte heap handles awaiting their turn at the queue head.) */
    std::size_t
    cancelTombstones() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return staleEntries_;
    }

    /** Reserve pool and queue capacity for @p n in-flight events. */
    void reserve(std::size_t n) OS_EXCLUDES(mu_);

    /**
     * Self-audit: verify cancellation bookkeeping is fully drained.
     * Called automatically whenever the queue empties; aborts on a
     * leaked stale entry or an unreclaimed slot (an internal
     * accounting bug).
     */
    void auditDrained() const OS_EXCLUDES(mu_);

  private:
    /** One pooled event.  A slot is live between schedule() and
     *  fire/cancel; its generation increments on every reclaim so
     *  stale EventIds can never touch a reused slot. */
    struct Slot
    {
        EventFn fn;
        SimTime when = 0.0;
        SimTime scheduledAt = 0.0; //!< Clock reading at schedule time.
        std::uint64_t seq = 0;  //!< Global schedule order; never reused.
        std::uint32_t gen = 1;  //!< Bumped when the slot is reclaimed.
        bool armed = false;     //!< Live (scheduled, not fired/cancelled).
        /** Ambient causal context captured at schedule time: timers
         *  fired later re-enter the trace of the code that armed
         *  them (retry trees).  Zero when tracing is detached. */
        TraceContext ctx;
        /** Ambient profiler phase label captured at schedule time. */
        std::uint16_t label = 0;
    };

    /** Priority-queue entry: POD handle into the pool. */
    struct QueueEntry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator>(const QueueEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    static EventId
    packId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }

    EventId scheduleAtLocked(SimTime when, EventFn fn)
        OS_REQUIRES(mu_);
    /** Pop stale heads; the live head's deadline or +infinity. */
    SimTime nextEventTimeLocked() OS_REQUIRES(mu_);
    std::uint32_t allocSlotLocked() OS_REQUIRES(mu_);
    void reclaimSlotLocked(std::uint32_t slot) OS_REQUIRES(mu_);
    void auditDrainedLocked() const OS_REQUIRES(mu_);

    /** Guards the clock and the pooled event store. */
    mutable Mutex mu_;

    SimTime now_ OS_GUARDED_BY(mu_) = 0.0;
    std::uint64_t nextSeq_ OS_GUARDED_BY(mu_) = 1;
    std::uint64_t executed_ OS_GUARDED_BY(mu_) = 0;
    std::size_t pending_ OS_GUARDED_BY(mu_) = 0;
    std::size_t staleEntries_ OS_GUARDED_BY(mu_) = 0;
    std::vector<Slot> pool_ OS_GUARDED_BY(mu_);
    std::vector<std::uint32_t> freeSlots_ OS_GUARDED_BY(mu_);
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue_ OS_GUARDED_BY(mu_);
    /** Timestamp/seq of the last event fired (FIFO tie-break audit). */
    SimTime lastFiredWhen_ OS_GUARDED_BY(mu_) = 0.0;
    std::uint64_t lastFiredSeq_ OS_GUARDED_BY(mu_) = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_SIM_SIMULATOR_H
