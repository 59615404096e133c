/**
 * @file
 * The wall-clock pacer of a RuntimeKind::Threaded Runtime (DESIGN.md
 * section 15).
 *
 * A Pacer drives a Runtime's Simulator + Network pair by the wall
 * clock instead of letting the caller step it:
 *
 *  - one loop thread fires due events from the simulator's pooled
 *    event store, one event per hold of the loop mutex, and otherwise
 *    sleeps until the next event's deadline or a client's signal;
 *  - client threads enter through a Pacer::Hold, which the Runtime
 *    takes around every call: it takes the same mutex and moves the
 *    simulator clock to min(wall, next event) without firing anything
 *    — so protocol objects written for the single-threaded simulator
 *    need no locks of their own, and a loop that fires one event at a
 *    time lets a waiting client in between any two events;
 *  - transport, latency, drops and partitions are the Network's, so
 *    FaultInjector, ChurnInjector and Universe::net() work unchanged;
 *  - every transmission is framed once (runtime/framing.h) and every
 *    delivery decodes and CRC-verifies that frame before the handler
 *    sees the message.
 *
 * Clock: wall seconds since the runtime started while the loop keeps
 * up; while it runs late the clock is the fired event's deadline, so
 * it trails the wall by the backlog and never runs ahead of it.
 *
 * Determinism caveat: event order follows the simulator's (deadline,
 * schedule order) rule, but when clients enter depends on the OS, so
 * a paced runtime makes no replay guarantee.
 */

#ifndef OCEANSTORE_RUNTIME_THREADED_PACER_H
#define OCEANSTORE_RUNTIME_THREADED_PACER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "sim/network.h"
#include "sim/simulator.h"

namespace oceanstore {

struct RuntimeStats;

/** Paces a Simulator + Network pair by the wall clock from one loop
 *  thread; owned by a Runtime of RuntimeKind::Threaded. */
class Pacer
{
  public:
    /** Attach the frame codec and start the loop thread. */
    Pacer(Simulator &sim, Network &net);

    /** Calls shutdown(). */
    ~Pacer();

    Pacer(const Pacer &) = delete;
    Pacer &operator=(const Pacer &) = delete;

    /** Stop firing events and join the loop thread.  Idempotent. */
    void shutdown();

    /**
     * The loop mutex, held for one scope by a client thread, which
     * also catches an idle clock up with the wall (never past a
     * pending event, so what the client schedules is timed from now).
     * Takes nothing when @p p is null (a Runtime without a pacer) or
     * on the thread that already holds it (the loop inside a
     * callback, or a nested execute()), so every call is reentrant.
     */
    class Hold
    {
      public:
        explicit Hold(const Pacer *p) : p_(p && p->enter() ? p : nullptr)
        {
        }

        ~Hold()
        {
            if (p_)
                p_->leave();
        }

        Hold(const Hold &) = delete;
        Hold &operator=(const Hold &) = delete;

      private:
        /** The pacer whose mutex this hold took; null when none. */
        const Pacer *p_;
    };

    /** The next unique stamp; the caller holds the loop mutex. */
    std::uint64_t nextStamp() const { return stamp_++; }

    /** Fill in the wall-clock and loop fields of @p s; the caller
     *  holds the loop mutex. */
    void fillStats(RuntimeStats &s) const;

    /** Wait, from a client thread, until @p pred holds (evaluated
     *  under the loop mutex after every fired event) or the wall
     *  passes @p deadline. */
    bool runUntil(const std::function<bool()> &pred, SimTime deadline);

    /** Let @p seconds of wall time pass. */
    void advance(SimTime seconds) const;

  private:
    // Out of line, so the part of a Hold inlined into every Runtime
    // call is one null check.
    /** Take the loop mutex unless this thread holds it already;
     *  false when it took nothing. */
    bool enter() const;
    /** Release what a true enter() took. */
    void leave() const;

    double wallNow() const;
    std::chrono::steady_clock::time_point wallAt(double t) const;
    void loop();

    Simulator &sim_;
    Network &net_;

    /** Wall instant at which the simulator clock reads 0. */
    std::chrono::steady_clock::time_point start_;

    /** The loop mutex: held while an event fires and while a client
     *  has entered; guards sim_, net_ and the fields below. */
    mutable std::mutex mu_;
    /** Wakes the loop: a client scheduled something earlier than its
     *  sleep target, left after a handoff, or shutdown began. */
    mutable std::condition_variable loopCv_;
    /** Threads blocked entering mu_; the loop yields to them. */
    mutable std::atomic<int> waiting_{0};
    /** Thread holding mu_ (reentrancy check), default when none. */
    mutable std::atomic<std::thread::id> owner_{};
    /** Deadline the loop sleeps until. */
    double sleepUntil_ = 0.0;
    /** True while the loop waits for waiting clients to pass. */
    bool handoff_ = false;
    bool stop_ = false;
    mutable std::uint64_t stamp_ = 0;

    /** Events fired by the loop; firedCv_ signals runUntil waiters
     *  after every one. */
    mutable std::mutex firedMu_;
    std::condition_variable firedCv_;
    std::uint64_t fired_ = 0;

    /** Wall nanoseconds the loop spent firing events. */
    std::atomic<std::uint64_t> busyNanos_{0};

    std::thread loop_;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_THREADED_PACER_H
